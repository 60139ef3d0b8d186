package runner

// The UB check-site coverage ledger report (ubsuite -coverage). The
// paper's Figure 2 accounts for which behaviors each tool *catches*; this
// report closes the complementary gap — which of the behaviors the
// semantics registers checks for the suite never even *fires*. The render
// is a pure function of the ledger, and the ledger's counters are
// order-independent sums, so a full-suite run produces a byte-identical
// report regardless of -j worker count.

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// CoverageReport renders a ledger: a code-sorted row per registered
// behavior with its lifetime evaluated/fired counters and gates, followed
// by an explicit dead-coverage section naming every registered behavior
// the run never fired — the suite's to-do list, in catalog shape.
func CoverageReport(led *obs.CoverageLedger) string {
	var b strings.Builder
	fmt.Fprintf(&b, "UB check-site coverage ledger (%s)\n", led.Schema)
	fmt.Fprintf(&b, "registered behaviors: %d   fired: %d   dead: %d\n\n",
		led.Registered, led.Fired, led.Dead)
	fmt.Fprintf(&b, "%-6s %-14s %10s %10s  %s\n", "code", "section", "evaluated", "fired", "gates")
	var dead []obs.CoverageRow
	for _, row := range led.Behaviors {
		fmt.Fprintf(&b, "%-6s %-14s %10d %10d  %s\n",
			row.Key, row.Section, row.Evaluated, row.Fired, strings.Join(row.Gates, ","))
		if row.Fired == 0 {
			dead = append(dead, row)
		}
	}
	if len(dead) == 0 {
		b.WriteString("\nno dead coverage: every registered behavior fired at least once\n")
		return b.String()
	}
	fmt.Fprintf(&b, "\ndead coverage — %d registered behavior(s) never fired:\n", len(dead))
	for _, row := range dead {
		fmt.Fprintf(&b, "  %s  %-14s %s\n", row.Key, row.Section, row.Desc)
		fmt.Fprintf(&b, "         sites: %s\n", strings.Join(row.Sites, ", "))
	}
	return b.String()
}
