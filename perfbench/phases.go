package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/suite"
	"repro/internal/tools"
)

// The expected Figure 2 and Figure 3 tables, timing lines removed.
var (
	//go:embed expected/figure2.txt
	wantFigure2 string
	//go:embed expected/figure3.txt
	wantFigure3 string
)

// tally counts checked outputs; every mismatch is a failed operation.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	shown             int
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted.Add(1)
	if ok {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shown < 20 {
		t.shown++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

// phase is what one measured workload loop observed: per-operation times
// and allocation, the collector's work, and the program's own counters.
type phase struct {
	ops  int
	wall time.Duration
	lat  []float64 // ms per operation
	// refLat and refWall are lat and wall on the reference machine.
	refLat   []float64
	refWall  time.Duration
	allocs   []float64 // bytes allocated per operation (regen only)
	allocSum uint64    // bytes allocated in the measured windows
	alloc    float64   // bytes allocated per operation
	gc       gcDelta

	// regen: compile cache and runner counters summed over regenerations.
	cache              driver.CacheStats
	cells, failedCells int
	retriedCells       int
	busyNS, workerNS   int64
	// explore: search statistics summed over searches.
	orders, pruned, deduped int64
	truncated               int
	searchNS                int64
	// serve-*: /metrics deltas summed over the loop's daemons, with the
	// server's latency histograms by stage.
	served             bool
	serverLat          map[string]*obs.HistogramSnapshot
	leaders, followers int64
	rejected           int64

	// heapMB is the largest live heap seen at the end of a regeneration,
	// a serve-unique slice or a loop, after a forced collection but while
	// its caches are still held.
	heapMB float64
}

// addServe folds the /metrics difference between two readings of one
// daemon into the phase.
func (p *phase) addServe(before, after *server.MetricsResponse) {
	p.served = true
	if p.serverLat == nil {
		p.serverLat = map[string]*obs.HistogramSnapshot{}
	}
	for _, stage := range []string{"queue", "compile", "run", "e2e"} {
		w := window(before.Latency[stage], after.Latency[stage])
		if p.serverLat[stage] == nil {
			p.serverLat[stage] = w
		} else {
			p.serverLat[stage].Merge(w)
		}
	}
	p.leaders += after.Coalesce.Leaders - before.Coalesce.Leaders
	p.followers += after.Coalesce.Followers - before.Coalesce.Followers
	p.rejected += after.Queue.Rejected - before.Queue.Rejected
	p.addCache(before.Cache, after.Cache)
}

// addCache folds the compile-cache work between two readings into p.
func (p *phase) addCache(before, after driver.CacheStats) {
	p.cache.Hits += after.Hits - before.Hits
	p.cache.Misses += after.Misses - before.Misses
	p.cache.Waits += after.Waits - before.Waits
	p.cache.Evictions += after.Evictions - before.Evictions
	p.cache.Compiles += after.Compiles - before.Compiles
	p.cache.CompileTime += after.CompileTime - before.CompileTime
}

// observeHeap collects garbage and records the live heap.
func (p *phase) observeHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if mb := float64(m.HeapAlloc) / (1 << 20); mb > p.heapMB {
		p.heapMB = mb
	}
}

// keepGoing reports whether a slice that started at start and has done
// ops operations should run another: until its time is spent and at least
// minOps are done.
func keepGoing(start time.Time, budget time.Duration, ops, minOps int) bool {
	return time.Since(start) < budget || ops < minOps
}

// loop is one workload's measured loop. A run interleaves the four loops
// in short slices, so each workload's figures sample the whole run rather
// than one window of it.
type loop interface {
	// slice runs operations for budget, and at least minOps of them.
	slice(budget time.Duration, minOps int)
	// measures is what the loop has measured so far.
	measures() *phase
	// finish ends the loop and returns what it measured, or nil if a
	// serving loop could not run.
	finish() *phase
}

// measured brackets one measured window: it returns a function that
// closes the window and folds its time, allocation and collector work
// into p.
func (p *phase) measured() func() {
	g0 := readGC()
	a0 := allocBytes()
	return func() {
		p.allocSum += allocBytes() - a0
		p.gc.add(g0, readGC())
	}
}

// ---------- regen ----------

// regenLoop regenerates the paper's evaluation — the corpus ubsuite
// -coverage walks — one regeneration at a time, each with a fresh
// compile cache and nproc workers.
type regenLoop struct {
	e *env
	t *tally
	p phase
}

func (l *regenLoop) slice(budget time.Duration, minOps int) {
	start := time.Now()
	for ops := 0; keepGoing(start, budget, ops, minOps); ops++ {
		end := l.p.measured()
		a0 := l.p.allocSum
		t0 := time.Now()
		cache := l.e.regenerate(&l.p, l.t)
		l.p.lat = append(l.p.lat, ms(time.Since(t0)))
		end()
		l.p.allocs = append(l.p.allocs, float64(l.p.allocSum-a0))
		l.p.ops++
		l.p.observeHeap()
		runtime.KeepAlive(cache)
	}
}

func (l *regenLoop) measures() *phase { return &l.p }

func (l *regenLoop) finish() *phase {
	l.p.alloc = median(l.p.allocs)
	return &l.p
}

// regenerate runs one regeneration and returns its compile cache.
func (e *env) regenerate(p *phase, t *tally) *driver.Cache {
	cache := driver.NewCache()
	var cells, failed int
	opts := runner.Options{Parallelism: nproc, Cache: cache, OnCell: func(c runner.Cell) {
		cells++
		switch c.Report.Verdict {
		case tools.InternalError, tools.Timeout, tools.Cancelled, tools.Skipped:
			failed++
		}
	}}
	var figs [2]string
	for i, s := range []*suite.Suite{e.in.juliet, e.in.own} {
		t0 := time.Now()
		m, err := runner.RunMatrix(s, e.tools, opts)
		p.workerNS += time.Since(t0).Nanoseconds() * nproc
		if err != nil {
			t.check(false, "regen: %s matrix: %v", s.Name, err)
			return cache
		}
		if m.CellTime != nil {
			p.busyNS += m.CellTime.SumNS
		}
		p.retriedCells += m.Retried
		if i == 0 {
			figs[0] = stripTiming(runner.Figure2From(s, e.tools, m).Render())
		} else {
			figs[1] = stripTiming(runner.Figure3From(s, e.tools, m).Render())
		}
		e.checkKCC(s, m, t)
	}
	e.torture(cache, t)

	p.cells += cells
	p.failedCells += failed
	p.addCache(driver.CacheStats{}, cache.Stats())
	t.check(figs[0] == wantFigure2, "regen: Figure 2 differs from expected/figure2.txt:\n%s", figs[0])
	t.check(figs[1] == wantFigure3, "regen: Figure 3 differs from expected/figure3.txt:\n%s", figs[1])
	return cache
}

// checkKCC holds the kcc column to the suite's labels: a defined control
// is never flagged and a dynamic undefined case always is, except the
// documented misses (suite.KnownDynamicMisses). Static undefined cases
// may go unflagged; their count is pinned by the Figure 3 table.
func (e *env) checkKCC(s *suite.Suite, m *runner.MatrixResult, t *tally) {
	k := len(e.tools) - 1 // tools.All puts kcc last
	for ci, c := range s.Cases {
		flagged := m.Reports[ci][k].Verdict == tools.Flagged
		switch {
		case !c.Bad:
			t.check(!flagged, "regen: kcc flagged defined case %s", c.Name)
		case c.Static || knownMiss(c.Name):
		default:
			t.check(flagged, "regen: kcc missed %s (%s)", c.Name, m.Reports[ci][k].Verdict)
		}
	}
}

func knownMiss(name string) bool {
	for d := range suite.KnownDynamicMisses {
		if strings.Contains(name, d) {
			return true
		}
	}
	return false
}

// torture runs torture-lite with kcc through the regeneration's cache on
// nproc workers and checks each program's output and exit code.
func (e *env) torture(cache *driver.Cache, t *tally) {
	cases := e.in.torture
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				tc := &cases[i]
				prog, err := cache.Compile(tc.Source, tc.Name+".c", driver.Options{})
				if err != nil {
					t.check(false, "regen: torture %s: %v", tc.Name, err)
					continue
				}
				res := interp.Run(prog, interp.Options{Profile: interp.KCCProfile()})
				t.check(len(prog.StaticUB) == 0 && res.UB == nil && res.Err == nil &&
					res.ExitCode == tc.ExitCode && res.Output == tc.Output,
					"regen: torture %s: exit %d ub %v err %v", tc.Name, res.ExitCode, res.UB, res.Err)
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()
}

func stripTiming(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(line, "Mean time") || strings.HasPrefix(line, "Frontend") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// ---------- serve-unique ----------

// uniqueLoop is a closed loop on one connection: every request is a new
// unique program, so it misses the compile cache and the coalescer. The
// server's compile cache keeps every program it compiles, so each slice
// runs on a fresh daemon that is stopped when the slice ends: the memory
// the workload holds, and leaves behind for the other loops' slices, then
// depends on the slice's request count and not on the program's speed.
type uniqueLoop struct {
	e      *env
	t      *tally
	p      phase
	failed bool
}

func (l *uniqueLoop) slice(budget time.Duration, minOps int) {
	if l.failed {
		return
	}
	d, err := startDaemon()
	if err != nil {
		l.t.check(false, "serve-unique: start daemon: %v", err)
		l.failed = true
		return
	}
	defer d.close()
	before, err := d.metrics()
	if err != nil {
		l.t.check(false, "serve-unique: /metrics: %v", err)
		l.failed = true
		return
	}
	start := time.Now()
	for ops := 0; keepGoing(start, budget, ops, minOps); {
		// Requests are generated in chunks, outside the measured windows.
		reqs := make([]request, min(25, max(minOps-ops, 1)))
		bodies := make([][]byte, len(reqs))
		for k := range reqs {
			reqs[k] = l.e.in.unique(l.e.nextUnique)
			l.e.nextUnique++
			body, err := json.Marshal(&server.AnalyzeRequest{Source: reqs[k].source, File: reqs[k].file})
			if err != nil {
				panic(err) // a struct of two strings always marshals
			}
			bodies[k] = body
		}
		end := l.p.measured()
		for k, body := range bodies {
			t0 := time.Now()
			v, err := d.analyze(body)
			l.p.lat = append(l.p.lat, ms(time.Since(t0)))
			want := l.e.expect[reqs[k].base]
			l.t.check(err == nil && v == want, "serve-unique: %s: got %v err %v, want %v", reqs[k].file, v, err, want)
		}
		end()
		l.p.ops += len(reqs)
		ops += len(reqs)
	}
	after, err := d.metrics()
	if err != nil {
		l.t.check(false, "serve-unique: /metrics: %v", err)
		l.failed = true
		return
	}
	l.p.addServe(before, after)
	// The live heap while the daemon's cache still holds the slice's
	// programs.
	l.p.observeHeap()
}

func (l *uniqueLoop) measures() *phase { return &l.p }

func (l *uniqueLoop) finish() *phase {
	if l.failed {
		return nil
	}
	l.p.alloc = float64(l.p.allocSum) / float64(l.p.ops)
	return &l.p
}

// ---------- serve-hot ----------

// hotLoop is a closed loop on nproc connections over the 32-program hot
// set compiled in set-up: every request is a cache hit or coalesced.
type hotLoop struct {
	e      *env
	t      *tally
	p      phase
	before *server.MetricsResponse
	slices int
	failed bool
}

func (l *hotLoop) slice(budget time.Duration, minOps int) {
	if l.failed {
		return
	}
	if l.before == nil {
		var err error
		if l.before, err = l.e.hotd.metrics(); err != nil {
			l.t.check(false, "serve-hot: /metrics: %v", err)
			l.failed = true
			return
		}
	}
	nth := l.slices
	l.slices++
	var done atomic.Int64
	lats := make([][]float64, nproc)
	end := l.p.measured()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(l.e.in.seed*7919 + int64(nth*nproc+w)))
			for keepGoing(start, budget, int(done.Load()), minOps) {
				k := rng.Intn(len(l.e.hotBody))
				t0 := time.Now()
				v, err := l.e.hotd.analyze(l.e.hotBody[k])
				lats[w] = append(lats[w], ms(time.Since(t0)))
				done.Add(1)
				want := l.e.expect[l.e.in.hot[k].base]
				l.t.check(err == nil && v == want, "serve-hot: %s: got %v err %v, want %v", l.e.in.hot[k].file, v, err, want)
			}
		}(w)
	}
	wg.Wait()
	l.p.wall += time.Since(start)
	end()
	for w := range lats {
		l.p.lat = append(l.p.lat, lats[w]...)
	}
	l.p.ops = len(l.p.lat)
}

func (l *hotLoop) measures() *phase { return &l.p }

func (l *hotLoop) finish() *phase {
	if l.failed || l.before == nil {
		return nil
	}
	after, err := l.e.hotd.metrics()
	if err != nil {
		l.t.check(false, "serve-hot: /metrics: %v", err)
		return nil
	}
	l.p.addServe(l.before, after)
	l.p.observeHeap()
	l.p.alloc = float64(l.p.allocSum) / float64(l.p.ops)
	return &l.p
}

// ---------- explore ----------

// exploreLoop is a closed loop of in-process exhaustive searches with
// nproc search workers, cycling through the seeded program mix.
type exploreLoop struct {
	e     *env
	t     *tally
	p     phase
	order []int
}

func (l *exploreLoop) slice(budget time.Duration, minOps int) {
	if l.order == nil {
		l.order = rand.New(rand.NewSource(l.e.in.seed * 104729)).Perm(len(l.e.explore))
	}
	end := l.p.measured()
	start := time.Now()
	for ops := 0; keepGoing(start, budget, ops, minOps); ops++ {
		i := l.order[l.p.ops%len(l.order)]
		prog := l.e.in.explore[i]
		t0 := time.Now()
		res := search.Explore(context.Background(), l.e.explore[i], search.Options{Parallelism: nproc, POR: prog.por, Dedup: prog.dedup})
		l.p.lat = append(l.p.lat, ms(time.Since(t0)))
		l.p.ops++
		l.p.orders += res.Stats.OrdersExplored
		l.p.pruned += res.Stats.OrdersPruned
		l.p.deduped += res.Stats.StatesDeduped
		l.p.searchNS += res.Stats.WallNS
		if !res.Exhausted {
			l.p.truncated++
		}
		l.t.check(res.Exhausted && outcomeKeys(res.Outcomes) == l.e.oracle[i],
			"explore: %s: outcomes differ from the ExploreDFS oracle (exhausted %v)", prog.name, res.Exhausted)
	}
	l.p.wall += time.Since(start)
	end()
}

func (l *exploreLoop) measures() *phase { return &l.p }

func (l *exploreLoop) finish() *phase {
	l.p.alloc = float64(l.p.allocSum) / float64(l.p.ops)
	l.p.observeHeap()
	return &l.p
}

// newLoop returns the named workload's loop.
func (e *env) newLoop(workload string, t *tally) loop {
	switch workload {
	case "regen":
		return &regenLoop{e: e, t: t}
	case "serve-unique":
		return &uniqueLoop{e: e, t: t}
	case "serve-hot":
		return &hotLoop{e: e, t: t}
	}
	return &exploreLoop{e: e, t: t}
}
