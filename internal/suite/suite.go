// Package suite generates the undefinedness benchmarks of the paper's §5:
// a Juliet-style suite (6 classes of undefined behavior, good/bad pairs,
// control-flow variants — §5.1.2) and the authors' own suite (one pair of
// tests per cataloged behavior, split static/dynamic — §5.2.2).
package suite

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/cheaders"
	"repro/internal/interp"
	"repro/internal/ub"
)

// Case is one test program.
type Case struct {
	Name   string
	Source string
	// Bad reports whether the program contains the targeted undefined
	// behavior; its control twin (same Name with "_good") does not.
	Bad bool
	// Class is the Juliet defect class (Figure 2 rows).
	Class string
	// Behavior is the targeted catalog entry (own suite).
	Behavior *ub.Behavior
	// Static classifies the behavior (Figure 3 columns).
	Static bool
}

// Suite is a set of cases.
type Suite struct {
	Name  string
	Cases []Case
}

// BadCount counts the undefined tests.
func (s *Suite) BadCount() int {
	n := 0
	for _, c := range s.Cases {
		if c.Bad {
			n++
		}
	}
	return n
}

// defect is one undefined-behavior template: file-scope declarations plus
// the body of a work() function in bad and good form.
type defect struct {
	class    string
	name     string
	behavior *ub.Behavior
	static   bool
	decls    string // file-scope declarations and helpers
	bad      string // statements of work() that trigger the UB
	good     string // statements of the control twin
	// needsStdio etc. are inferred from the text; includes lists extra
	// headers beyond the auto-detected ones.
	includes []string
}

// variant is a Juliet-style control/data-flow wrapper deciding how work()
// is reached. Harder variants defeat straightforward static analysis; all
// reach work() exactly once dynamically.
type variant struct {
	id   string
	wrap func(call string) string // statements of main() around the call
	// decls are extra file-scope declarations (flags, helpers).
	decls string
}

var variants = []variant{
	{id: "01", wrap: func(call string) string {
		return "\t" + call + "\n"
	}},
	{id: "02", wrap: func(call string) string {
		return "\tif (1) {\n\t\t" + call + "\n\t}\n"
	}},
	{id: "03", decls: "static int global_flag = 5;\n", wrap: func(call string) string {
		return "\tif (global_flag == 5) {\n\t\t" + call + "\n\t}\n"
	}},
	{id: "04", wrap: func(call string) string {
		return "\tfor (int i = 0; i < 1; i++) {\n\t\t" + call + "\n\t}\n"
	}},
	{id: "05", wrap: func(call string) string {
		return "\twhile (1) {\n\t\t" + call + "\n\t\tbreak;\n\t}\n"
	}},
	{id: "06", wrap: func(call string) string {
		return "\tvoid (*fp)(void) = work;\n\tfp();\n"
	}},
	{id: "07", decls: "static int select_7 = 7;\n", wrap: func(call string) string {
		return "\tswitch (select_7) {\n\tcase 7:\n\t\t" + call + "\n\t\tbreak;\n\tdefault:\n\t\tbreak;\n\t}\n"
	}},
	{id: "08", decls: "static void indirect(void) { work(); }\n", wrap: func(call string) string {
		return "\tindirect();\n"
	}},
}

// render builds a full translation unit for a defect under a variant.
func render(d defect, v variant, bad bool) string {
	body := d.good
	if bad {
		body = d.bad
	}
	var b strings.Builder
	b.WriteString(autoIncludes(d.decls + body))
	for _, inc := range d.includes {
		fmt.Fprintf(&b, "#include <%s>\n", inc)
	}
	b.WriteString("\n")
	if d.decls != "" {
		b.WriteString(d.decls)
		b.WriteString("\n")
	}
	b.WriteString("static void work(void) {\n")
	b.WriteString(indent(body))
	b.WriteString("}\n\n")
	if v.decls != "" {
		b.WriteString(v.decls)
		b.WriteString("\n")
	}
	b.WriteString("int main(void) {\n")
	b.WriteString(v.wrap("work();"))
	b.WriteString("\treturn 0;\n}\n")
	return b.String()
}

// autoIncludes adds, in a fixed order, each header that declares an
// identifier the snippet uses.
func autoIncludes(code string) string {
	ids := strings.FieldsFunc(code, notIdentChar)
	var b strings.Builder
	for _, h := range []string{"stdio.h", "stdlib.h", "string.h", "limits.h", "ctype.h", "float.h"} {
		for _, id := range ids {
			if declared[h][id] {
				fmt.Fprintf(&b, "#include <%s>\n", h)
				break
			}
		}
	}
	return b.String()
}

// declared maps each built-in header to the identifiers it declares: its
// library functions (the interp.Libc rows) and the names its #define and
// typedef lines introduce.
var declared = func() map[string]map[string]bool {
	m := map[string]map[string]bool{}
	for h, text := range cheaders.Headers {
		m[h] = map[string]bool{}
		for _, line := range strings.Split(text, "\n") {
			switch w := strings.FieldsFunc(line, notIdentChar); {
			case strings.HasPrefix(line, "#define "):
				m[h][w[1]] = true
			case strings.HasPrefix(line, "typedef "):
				m[h][w[len(w)-1]] = true
			}
		}
	}
	for _, f := range interp.Libc {
		m[f.Header][f.Name] = true
	}
	return m
}()

func notIdentChar(r rune) bool {
	return !(r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r))
}

func indent(body string) string {
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	var b strings.Builder
	for _, l := range lines {
		b.WriteString("\t")
		b.WriteString(l)
		b.WriteString("\n")
	}
	return b.String()
}
