package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cast"
	"repro/internal/cheaders"
	"repro/internal/cpp"
	"repro/internal/ctypes"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/search"
	"repro/internal/sema"
	"repro/internal/suite"
)

// The traced run replays a workload's own inputs through each layer's
// public functions — cpp.New(...).Run, parser.Parse, sema.Check,
// driver.Cache.Compile, tools.Tool.AnalyzeProgram, interp.Run,
// search.Explore — bracketing every call with a span. The same replay
// runs in three modes: plain (no spans, the reference for the tracing
// overhead), traced (spans), and counting (one goroutine, allocations
// counted around each call, interpreter runs repeated under an observer
// for step and check counts).

type tracer struct {
	rec   *recorder // nil: no spans
	count *counter  // nil: no allocation counting

	// Work counted at the layer boundaries: preprocessed bytes (cpp's
	// output, the parser's input) and programs with static UB.
	ppBytes, staticUB atomic.Int64
}

type counter struct {
	mu                  sync.Mutex
	calls, objs         map[string]int64
	steps, checks, runs int64 // observed interpreter runs
}

func newCounter() *counter {
	return &counter{calls: map[string]int64{}, objs: map[string]int64{}}
}

func (c *counter) allocsPerCall(layer string) float64 {
	if c.calls[layer] == 0 {
		return 0
	}
	return float64(c.objs[layer]) / float64(c.calls[layer])
}

var opSeq atomic.Uint64

// call runs fn as one call into layer, under parent.
func (x *tracer) call(parent *span, layer string, fn func()) {
	sp := parent.child(layer)
	if x.count == nil {
		fn()
		sp.end()
		return
	}
	o0 := allocObjects()
	fn()
	o1 := allocObjects()
	sp.end()
	x.count.mu.Lock()
	x.count.calls[layer]++
	x.count.objs[layer] += int64(o1 - o0)
	x.count.mu.Unlock()
}

var (
	lp64      = ctypes.LP64()
	resolvers = cpp.ChainResolver{cheaders.Resolver(), cpp.FSResolver{}}
)

// compile is driver.Compile one layer at a time.
func (x *tracer) compile(parent *span, src, file string) (*sema.Program, error) {
	d := parent.child("driver")
	defer d.end()
	var out string
	var err error
	x.call(d, "cpp", func() { out, err = cpp.New(resolvers).Run(src, file) })
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	x.ppBytes.Add(int64(len(out)))
	var tu *cast.TranslationUnit
	x.call(d, "parser", func() { tu, err = parser.Parse(out, file, lp64) })
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	var prog *sema.Program
	x.call(d, "sema", func() { prog, err = sema.Check(tu, lp64) })
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	if len(prog.StaticUB) > 0 {
		x.staticUB.Add(1)
	}
	return prog, nil
}

// run is one interp.Run; opts is called for each execution, since a
// scheduler is consumed by the run it steers.
func (x *tracer) run(parent *span, prog *sema.Program, opts func() interp.Options) interp.Result {
	var res interp.Result
	x.call(parent, "interp", func() { res = interp.Run(prog, opts()) })
	if x.count != nil {
		m := obs.NewMetrics()
		o := opts()
		o.Observer = m
		interp.Run(prog, o)
		s := m.Snapshot()
		x.count.mu.Lock()
		x.count.runs++
		x.count.steps += s.Steps
		x.count.checks += s.ChecksPassed + s.ChecksFired
		x.count.mu.Unlock()
	}
	return res
}

func kccOpts() interp.Options { return interp.Options{Profile: interp.KCCProfile()} }

// toolLayer names a tool's span: tools.kcc, tools.valgrind, ...
func toolLayer(name string) string {
	switch name {
	case "V. Analysis":
		return "tools.value-analysis"
	}
	return "tools." + strings.ToLower(name)
}

// replayRound replays one round of the workload and returns each
// operation's wall time in ms. Counting rounds use one goroutine so that
// allocation counts belong to the call they bracket.
func (e *env) replayRound(workload string, x *tracer, round int, t *tally) []float64 {
	workers := nproc
	if x.count != nil {
		workers = 1
	}
	switch workload {
	case "regen":
		t0 := time.Now()
		e.replayRegen(x, opSeq.Add(1), workers, t)
		return []float64{ms(time.Since(t0))}
	case "serve-unique":
		var lat []float64
		for k := 0; k < 16; k++ {
			r := e.in.unique(e.nextUnique)
			e.nextUnique++
			t0 := time.Now()
			root := x.rec.root("request", opSeq.Add(1), 0)
			prog, err := x.compile(root, r.source, r.file)
			if err == nil && len(prog.StaticUB) == 0 {
				x.run(root, prog, kccOpts)
			}
			root.end()
			lat = append(lat, ms(time.Since(t0)))
			t.check((err == nil) == e.compiles[r.file], "serve-unique replay: %s: %v", r.file, err)
		}
		return lat
	case "serve-hot":
		lats := make([][]float64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(e.in.seed*31 + int64(round*nproc+w)))
				for k := 0; k < 64; k++ {
					h := e.in.hot[rng.Intn(len(e.in.hot))]
					t0 := time.Now()
					root := x.rec.root("request", opSeq.Add(1), w)
					var prog *sema.Program
					var err error
					x.call(root, "driver", func() { prog, err = e.hotCache.Compile(h.source, h.file, driver.Options{}) })
					if err == nil && len(prog.StaticUB) == 0 {
						x.run(root, prog, kccOpts)
					}
					root.end()
					lats[w] = append(lats[w], ms(time.Since(t0)))
					t.check((err == nil) == e.compiles[h.file], "serve-hot replay: %s: %v", h.file, err)
				}
			}(w)
		}
		wg.Wait()
		var lat []float64
		for _, l := range lats {
			lat = append(lat, l...)
		}
		return lat
	default: // explore
		var lat []float64
		for _, i := range rand.New(rand.NewSource(e.in.seed*131 + int64(round))).Perm(len(e.explore)) {
			t0 := time.Now()
			e.replayExplore(x, i, t)
			lat = append(lat, ms(time.Since(t0)))
		}
		return lat
	}
}

// replayRegen is one regeneration as RunMatrix performs it: each case
// through cpp → parser → sema once, then through every tool's
// AnalyzeProgram; then torture-lite through the frontend and interp.Run.
func (e *env) replayRegen(x *tracer, op uint64, workers int, t *tally) {
	var cases []suite.Case
	cases = append(append(cases, e.in.juliet.Cases...), e.in.own.Cases...)
	n := len(cases) + len(e.in.torture)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if i < len(cases) {
					c := &cases[i]
					root := x.rec.root("case", op, w)
					prog, err := x.compile(root, c.Source, c.Name+".c")
					t.check((err == nil) == e.compiles[c.Name+".c"], "regen replay: %s: %v", c.Name, err)
					for _, tool := range e.tools {
						if err != nil {
							break
						}
						x.call(root, toolLayer(tool.Name()), func() {
							tool.AnalyzeProgram(context.Background(), prog, c.Name+".c")
						})
					}
					root.end()
					continue
				}
				tc := &e.in.torture[i-len(cases)]
				root := x.rec.root("torture", op, w)
				prog, err := x.compile(root, tc.Source, tc.Name+".c")
				if err == nil {
					res := x.run(root, prog, kccOpts)
					t.check(res.ExitCode == tc.ExitCode && res.Output == tc.Output,
						"regen replay: torture %s: exit %d", tc.Name, res.ExitCode)
				} else {
					t.check(false, "regen replay: torture %s: %v", tc.Name, err)
				}
				root.end()
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// replayExplore is one search followed by a replay of every outcome's
// decision trace through interp.Run, which must reproduce the outcome.
func (e *env) replayExplore(x *tracer, i int, t *tally) {
	p, prog := e.in.explore[i], e.explore[i]
	root := x.rec.root("search-op", opSeq.Add(1), 0)
	var res search.Result
	x.call(root, "search", func() {
		res = search.Explore(context.Background(), prog, search.Options{Parallelism: nproc, POR: p.por, Dedup: p.dedup})
	})
	t.check(res.Exhausted && outcomeKeys(res.Outcomes) == e.oracle[i], "explore replay: %s: outcomes differ from the oracle", p.name)
	for _, o := range res.Outcomes {
		r := x.run(root, prog, func() interp.Options {
			return interp.Options{Sched: &interp.Trace{Prefix: append([]int(nil), o.Trace...)}}
		})
		got := search.Outcome{ExitCode: r.ExitCode, Output: r.Output, UB: r.UB, Err: r.Err}
		t.check(got.Key() == o.Key(), "explore replay: %s: trace %v gave %q, search saw %q", p.name, o.Trace, got.Key(), o.Key())
	}
	root.end()
}

// runTraced is the --trace 1 run: a reference pass of the real workload
// loop (the program's own counters, /metrics deltas and GC figures), then
// plain and traced replay rounds alternately (spans and the tracing
// overhead), then one counting round (allocations, steps, checks).
func runTraced(workload string, seed int64, budget time.Duration, outDir string) (*result, error) {
	e, err := setup(seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	t := &tally{}
	speed0 := sampleSpeed()

	l := e.newLoop(workload, t)
	for c := 0; c < cycles; c++ {
		runtime.GC()
		l.slice(sliceSize(workload, workload, budget*2/5))
	}
	ref := l.finish()
	if ref == nil {
		return nil, fmt.Errorf("%s: the serving loop could not run", workload)
	}

	runtime.GC()
	rec := newRecorder()
	plain, traced := &tracer{}, &tracer{rec: rec}
	var plainLat, tracedLat []float64
	start := time.Now()
	for round := 0; time.Since(start) < budget*2/5 || round < 3; round++ {
		plainLat = append(plainLat, e.replayRound(workload, plain, round, t)...)
		tracedLat = append(tracedLat, e.replayRound(workload, traced, round, t)...)
	}

	// The counting round replays the same inputs in every run, however far
	// the timed passes got.
	runtime.GC()
	e.nextUnique = 0
	counting := &tracer{count: newCounter()}
	rounds := 1
	if workload == "serve-unique" {
		rounds = 4
	}
	for r := 0; r < rounds; r++ {
		e.replayRound(workload, counting, 1000+r, t)
	}

	lm := layerMetrics(workload, ref, rec, traced, counting.count, len(tracedLat), plainLat, tracedLat)
	sum := summarize(workload, rec, lm, ref, plainLat, tracedLat)
	sum.Seed = seed
	sum.Speed = (speed0 + sampleSpeed()) / 2
	if err := writeTraceOutputs(outDir, rec, sum); err != nil {
		return nil, err
	}
	return finish(t, lm), nil
}

func writeTraceOutputs(outDir string, rec *recorder, sum *layerSummary) error {
	dir := filepath.Join(outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", sum.Workload, sum.Seed))
	if err := rec.writeChrome(base + ".trace.json"); err != nil {
		return err
	}
	if err := writeJSONFile(base+".layers.json", sum); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s.trace.json and %s.layers.json\n", base, base)
	fmt.Fprintf(os.Stderr, "perfbench: %s: dominant layer group %q (intended %q), frontend %.1f%% of replayed time, tracing overhead %.1f%%\n",
		sum.Workload, sum.Dominant, sum.Intended, 100*sum.Groups["frontend"], sum.Metrics["trace.overhead_pct"].Value)
	return nil
}
