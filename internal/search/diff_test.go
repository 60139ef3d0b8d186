package search_test

import (
	"context"
	"testing"

	undefc "repro"
	"repro/internal/search"
	"repro/internal/suite"
)

// gateConfigs are the explorer configurations the differential gate holds
// to the sequential oracle. Parallelism 4 exercises the worker pool's
// frontier handoff; the dedup variant additionally exercises state-hash
// truncation of expansion responsibility.
var gateConfigs = []struct {
	name string
	opts search.Options
}{
	{"j4+por", search.Options{Parallelism: 4, POR: true}},
	{"j4+por+dedup", search.Options{Parallelism: 4, POR: true, Dedup: true}},
}

// TestDifferentialGate is the PR's soundness proof, wired into make check:
// over every suite case the oracle can exhaust, the parallel POR explorer
// must report the byte-identical outcome set under the tree-walking
// interpreter (the "tree" subtest). Cases whose order tree the oracle
// cannot finish within budget are skipped (we cannot compare exhaustive
// sets we don't have); the gate fails if that leaves no order-sensitive
// case covered, so it cannot rot into a no-op.
func TestDifferentialGate(t *testing.T) {
	cases := append(suite.Juliet().Cases, suite.Own().Cases...)
	for _, p := range matrixPrograms {
		cases = append(cases, suite.Case{Name: "search_" + p.name, Source: p.src})
	}
	ctx := context.Background()
	t.Run("tree", func(t *testing.T) {
		var compared, withChoices, skipped int
		for i, c := range cases {
			if testing.Short() && i%7 != 0 {
				continue
			}
			prog, err := undefc.Compile(c.Source, c.Name+".c", undefc.Options{})
			if err != nil {
				continue
			}
			oracle := search.ExploreDFS(ctx, prog, search.Options{MaxRuns: 512})
			if !oracle.Exhausted {
				skipped++
				continue
			}
			if oracle.Runs > 1 {
				withChoices++
			}
			for _, cfg := range gateConfigs {
				opts := cfg.opts
				opts.MaxRuns = 4096
				res := search.Explore(ctx, prog, opts)
				if !res.Exhausted {
					t.Errorf("%s/%s: explorer did not exhaust where oracle did (%d runs)",
						c.Name, cfg.name, res.Runs)
					continue
				}
				if !sameKeys(oracle, res) {
					t.Errorf("%s/%s: outcome sets differ\noracle:  %v\nexplore: %v",
						c.Name, cfg.name, keySet(oracle), keySet(res))
				}
			}
			compared++
		}
		if compared == 0 || withChoices == 0 {
			t.Fatalf("gate vacuous: %d compared, %d with choice points", compared, withChoices)
		}
		t.Logf("gate: %d cases compared (%d with choice points, %d over oracle budget)",
			compared, withChoices, skipped)
	})
}
