package interp

import (
	"fmt"
	"strings"
)

// ConfigCell is one labeled cell of the interpreter's configuration — the
// structure Figure 1 of the paper shows for kcc ("the real C configuration
// ... contains over 90 such cells"; ours is the same tree at the
// granularity this implementation realizes).
type ConfigCell struct {
	Label    string
	Contents string // leaf description
	Children []*ConfigCell
}

// ConfigTree describes the interpreter state as the paper's configuration.
func (in *Interp) ConfigTree() *ConfigCell {
	local := &ConfigCell{Label: "local"}
	control := &ConfigCell{Label: "control", Children: []*ConfigCell{
		{Label: "env", Contents: fmt.Sprintf("Map (%d frames live)", len(in.frames))},
		{Label: "types", Contents: "Map (checked types on AST)"},
	}}
	local.Children = append(local.Children, control,
		&ConfigCell{Label: "callStack", Contents: fmt.Sprintf("List (depth %d)", len(in.frames))})

	written, read := 0, 0
	if len(in.seq) > 0 {
		written = in.curSeq().written.Len()
		read = in.curSeq().read.Len()
	}
	return &ConfigCell{Label: "T", Children: []*ConfigCell{
		{Label: "k", Contents: "K (the current computation)"},
		{Label: "genv", Contents: fmt.Sprintf("Map (%d globals)", in.prog.NumGlobals)},
		{Label: "gtypes", Contents: fmt.Sprintf("Map (%d file-scope symbols)", len(in.prog.Symbols))},
		{Label: "locsWrittenTo", Contents: fmt.Sprintf("Set (%d locations)", written)},
		{Label: "locsRead", Contents: fmt.Sprintf("Set (%d locations)", read)},
		{Label: "notWritable", Contents: "Set (const locations, §4.2.2)"},
		{Label: "mem", Contents: fmt.Sprintf("Map (%d objects, %d live bytes)", in.store.NumObjects(), in.store.LiveBytes())},
		local,
	}}
}

// Render prints the cell tree in the nested-cell style of Figure 1.
func (c *ConfigCell) Render() string {
	var b strings.Builder
	c.render(&b, 0)
	return b.String()
}

func (c *ConfigCell) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	if len(c.Children) == 0 {
		fmt.Fprintf(b, "%s⟨%s⟩%s\n", indent, c.Contents, c.Label)
		return
	}
	fmt.Fprintf(b, "%s⟨\n", indent)
	for _, ch := range c.Children {
		ch.render(b, depth+1)
	}
	fmt.Fprintf(b, "%s⟩%s\n", indent, c.Label)
}
