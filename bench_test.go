// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), plus the per-tool cost comparison of §5.1.2. Run:
//
//	go test -bench=. -benchmem
//
// The rows/series each benchmark exercises are printed by the matching
// cmd/ubsuite and example programs; the benchmarks measure the cost of
// regenerating them.
package undefc_test

import (
	"context"
	"fmt"
	"testing"

	undefc "repro"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/suite"
	"repro/internal/tools"
)

// BenchmarkFigure2 regenerates the full Juliet-class comparison table
// (all four tools over every generated test).
func BenchmarkFigure2(b *testing.B) {
	s := suite.Juliet()
	ts := tools.All(tools.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := runner.RunJuliet(s, ts)
		if fig.Overall["kcc"].Flagged == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure2Parallel regenerates the same table on the worker-pool
// executor with all CPUs. Compare against BenchmarkFigure2 (the
// single-worker baseline): the §5.1.2 point is that the case×tool matrix
// is embarrassingly parallel once the frontend pass is shared.
func BenchmarkFigure2Parallel(b *testing.B) {
	s := suite.Juliet()
	ts := tools.All(tools.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := runner.RunJulietOpts(s, ts, runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if fig.Overall["kcc"].Flagged == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure3 regenerates the own-suite static/dynamic comparison.
func BenchmarkFigure3(b *testing.B) {
	s := suite.Own()
	ts := tools.All(tools.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := runner.RunOwn(s, ts)
		if fig.Dynamic["kcc"] == 0 {
			b.Fatal("empty figure")
		}
	}
}

// The per-tool cost comparison of §5.1.2 (the paper: Valgrind and the Value
// Analysis ≈0.5s per test, kcc 23s, CheckPointer 80s — the semantics-based
// tool pays for completeness). One representative Juliet test per run.
func benchmarkToolCost(b *testing.B, tool tools.Tool) {
	s := suite.Juliet()
	src, name := s.Cases[0].Source, s.Cases[0].Name
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := tool.Analyze(src, name+".c")
		if rep.Verdict == tools.Inconclusive {
			b.Fatalf("inconclusive: %s", rep.Detail)
		}
	}
}

func BenchmarkToolCostKCC(b *testing.B)      { benchmarkToolCost(b, tools.KCC(tools.Config{})) }
func BenchmarkToolCostValgrind(b *testing.B) { benchmarkToolCost(b, tools.Memcheck(tools.Config{})) }
func BenchmarkToolCostCheckPointer(b *testing.B) {
	benchmarkToolCost(b, tools.CheckPointer(tools.Config{}))
}
func BenchmarkToolCostValueAnalysis(b *testing.B) {
	benchmarkToolCost(b, tools.ValueAnalysis(tools.Config{}))
}

// BenchmarkOrderSearch is the §2.5.2 experiment: exhaustively exploring the
// evaluation orders of the setDenom program.
func BenchmarkOrderSearch(b *testing.B) {
	prog, err := undefc.Compile(`
int d = 5;
int setDenom(int x){ return d = x; }
int main(void) { return (10/d) + setDenom(0); }
`, "setdenom.c", undefc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := search.Explore(context.Background(), prog, search.Options{})
		if res.UB() == nil {
			b.Fatal("search missed the division by zero")
		}
	}
}

// BenchmarkTortureSuite measures the positive semantics: executing every
// defined regression program (the stand-in for the GCC torture tests).
func BenchmarkTortureSuite(b *testing.B) {
	cases := suite.Torture()
	progs := make([]*undefc.Program, len(cases))
	for i, tc := range cases {
		p, err := undefc.Compile(tc.Source, tc.Name+".c", undefc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range progs {
			res := undefc.Run(p, undefc.Options{})
			if res.UB != nil || res.Err != nil {
				b.Fatalf("%s: %v %v", cases[j].Name, res.UB, res.Err)
			}
		}
	}
}

// BenchmarkCompile measures frontend throughput (preprocess + parse +
// typecheck) on a representative program.
func BenchmarkCompile(b *testing.B) {
	src := suite.Torture()[3].Source // the linked-list program
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := undefc.Compile(src, "bench.c", undefc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileCache measures the two paths through the shared compile
// cache: "miss" is a real frontend pass plus insertion (every key fresh),
// "hit" returns the already-compiled immutable program.
func BenchmarkCompileCache(b *testing.B) {
	src := suite.Torture()[3].Source // the linked-list program
	b.Run("miss", func(b *testing.B) {
		c := driver.NewCache()
		for i := 0; i < b.N; i++ {
			// A unique define per iteration makes every lookup a miss.
			_, err := c.Compile(src, "bench.c", driver.Options{Defines: []string{fmt.Sprintf("I=%d", i)}})
			if err != nil {
				b.Fatal(err)
			}
		}
		if st := c.Stats(); st.Hits != 0 || st.Misses != int64(b.N) {
			b.Fatalf("stats = %+v, want all misses", st)
		}
	})
	b.Run("hit", func(b *testing.B) {
		c := driver.NewCache()
		if _, err := c.Compile(src, "bench.c", driver.Options{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Compile(src, "bench.c", driver.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		if st := c.Stats(); st.Misses != 1 || st.Hits != int64(b.N) {
			b.Fatalf("stats = %+v, want 1 miss and all hits", st)
		}
	})
}

// BenchmarkDetectUnsequenced measures the cost of one end-to-end detection
// of the paper's flagship example (the §3.2 transcript).
func BenchmarkDetectUnsequenced(b *testing.B) {
	src := `
int main(void){
	int x = 0;
	return (x = 1) + (x = 2);
}
`
	for i := 0; i < b.N; i++ {
		res := undefc.RunSource(src, "unseq.c", undefc.Options{})
		if res.UB == nil {
			b.Fatal("missed")
		}
	}
}

// BenchmarkConfigTree exercises the Figure-1 configuration rendering.
func BenchmarkConfigTree(b *testing.B) {
	prog, err := undefc.Compile("int g; int main(void){ return g; }", "c.c", undefc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	in := interp.New(prog, interp.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if in.ConfigTree().Render() == "" {
			b.Fatal("empty tree")
		}
	}
}

// BenchmarkCatalog measures the §5.2.1 classification tally.
func BenchmarkCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if runner.CatalogSummary() == "" {
			b.Fatal("empty")
		}
	}
}

// BenchmarkInterpSieve measures raw interpretation speed on a compute-bound
// program (the ablation baseline for profile-check overhead).
func BenchmarkInterpSieve(b *testing.B) {
	prog, err := undefc.Compile(suite.Torture()[1].Source, "sieve.c", undefc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := undefc.Run(prog, undefc.Options{})
		if res.UB != nil || res.Err != nil {
			b.Fatal(res.UB, res.Err)
		}
	}
}

// BenchmarkInterpOnly isolates pure execution speed on a compute-bound
// program: the translation unit is compiled once outside the timer, so
// each iteration measures only the tree walker. Its allocs/op is
// deterministic (EXPERIMENTS.md, "Bytecode VM removed").
func BenchmarkInterpOnly(b *testing.B) {
	prog, err := undefc.Compile(suite.Torture()[1].Source, "sieve.c", undefc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := interp.Run(prog, interp.Options{})
		if res.UB != nil || res.Err != nil {
			b.Fatal(res.UB, res.Err)
		}
	}
}

// BenchmarkProfileOverhead compares the full kcc profile against the
// reduced memcheck profile on the same program: the cost of the paper's
// §4.2 bookkeeping (sequence sets, const sets, alias checks).
func BenchmarkProfileOverhead(b *testing.B) {
	prog, err := undefc.Compile(suite.Torture()[1].Source, "sieve.c", undefc.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kcc-full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			interp.Run(prog, interp.Options{Profile: interp.KCCProfile()})
		}
	})
	b.Run("memcheck-reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			interp.Run(prog, interp.Options{Profile: interp.MemcheckProfile()})
		}
	})
}
