package main

import (
	"context"
	"testing"

	"repro/internal/driver"
	"repro/internal/search"
	"repro/internal/tools"
)

func TestInputsDeterministic(t *testing.T) {
	a, b, c := newInputs(7), newInputs(7), newInputs(8)
	for i := 0; i < 50; i++ {
		if a.unique(i) != b.unique(i) {
			t.Fatalf("unique request %d differs between two generations of seed 7", i)
		}
	}
	for k := range a.hot {
		if a.hot[k] != b.hot[k] {
			t.Fatalf("hot program %d differs between two generations of seed 7", k)
		}
	}
	for k := range a.explore {
		if a.explore[k] != b.explore[k] {
			t.Fatalf("explore program %d differs between two generations of seed 7", k)
		}
	}
	if a.unique(0) == c.unique(0) {
		t.Fatal("seeds 7 and 8 generate the same first request")
	}
	if len(a.explore) != len(c.explore) || len(a.juliet.Cases) != len(c.juliet.Cases) {
		t.Fatal("two seeds generate different amounts of work")
	}
}

// Padding must not change a verdict: serve-unique checks each padded
// request against its base program's verdict.
func TestPaddingKeepsVerdict(t *testing.T) {
	in := newInputs(3)
	kcc := tools.KCC(tools.Config{})
	analyze := func(src, file string) verdict {
		prog, err := driver.Compile(src, file, driver.Options{})
		if err != nil {
			return verdictOf(tools.ReportFromError(err))
		}
		return verdictOf(kcc.AnalyzeProgram(context.Background(), prog, file))
	}
	for i := 0; i < 40; i++ {
		r := in.unique(i)
		base := in.bases[r.base]
		if got, want := analyze(r.source, r.file), analyze(base.Source, r.file); got != want {
			t.Errorf("request %d (%s): padded verdict %v, base %v", i, r.file, got, want)
		}
	}
}

// Every explore program's oracle must finish: set-up refuses otherwise.
func TestExploreOracleFinishes(t *testing.T) {
	for _, p := range newInputs(5).explore {
		prog, err := driver.Compile(p.source, p.name+".c", driver.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if res := search.ExploreDFS(context.Background(), prog, search.Options{}); !res.Exhausted {
			t.Errorf("%s: DFS oracle stopped after %d runs", p.name, res.Runs)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.99, 4.96}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
