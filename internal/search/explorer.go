package search

// The parallel frontier explorer behind Explore.
//
// Work items are decision prefixes. A run with prefix P replays P and
// then picks leftmost (0) at every further choice, so one run covers the
// decision-tree path P·0·0·…; expansion enqueues, for every fresh
// position i (i ≥ len(P)) with branching factor n, the sibling prefixes
// picks[0..i)+[c] for c ≠ picks[i]. Every enqueued prefix ends in a
// non-zero decision, so each tree node has exactly one run responsible
// for expanding it — no node is enqueued twice.
//
// Partial-order reduction changes only the expansion step. A choice
// point visited in canonical (all-leftmost) order is judged by its
// operand footprints: if every pair of operands commutes, the siblings
// are deferred — provably, every sibling order reaches the same machine
// state, so only the count is recorded (OrdersPruned). The judgment is
// per tree *node*, registered in a path-keyed registry, because a point
// that looks independent on one visit can reveal a conflict on a later
// visit through the same node (a nested alternative changes what an
// operand does). The first visit that observes a conflict flips the node
// to expanded and enqueues all deferred siblings — late, but exactly
// once, and before any run that could need them exists (alternative runs
// below the node are only enqueued by runs that already went through
// this bookkeeping).
//
// Dedup changes only who is responsible: a run that reaches a top-level
// choice point whose machine state another run already claimed stops
// expanding from that position on — the claiming run owns the subtree.

import (
	"context"
	"encoding/binary"
	"strconv"
	"sync"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/sema"
)

// pointNode is the POR registry entry for one decision-tree node.
type pointNode struct {
	// expanded: a conflict was observed through this node; all sibling
	// orders are (or are being) enqueued, and later visits do nothing.
	expanded bool
	// pruned is the number of sibling branches currently deferred at
	// this node (rolled back if the node is later expanded).
	pruned int64
}

type explorer struct {
	prog    *sema.Program
	opts    Options
	ctx     context.Context
	maxRuns int
	por     bool
	dedup   bool

	// states is the dedup registry: machine-state digests, first claimer
	// owns the subtree. Accessed mid-run from worker goroutines, hence a
	// sync.Map rather than the explorer mutex.
	states sync.Map // uint64 → struct{}

	mu        sync.Mutex
	cond      *sync.Cond
	queue     [][]int
	pending   int // queued + in-flight work items
	runs      int
	truncated bool // budget hit, cancelled, or stopped at first UB
	stopped   bool // stop dispatching new work now
	seen      map[string]bool
	outcomes  []Outcome
	points    map[string]*pointNode // POR registry, keyed by pick path
	pruned    int64
	deduped   int64

	cbMu sync.Mutex // serializes OnOutcome
}

func newExplorer(ctx context.Context, prog *sema.Program, opts Options, maxRuns int) *explorer {
	e := &explorer{
		prog:    prog,
		opts:    opts,
		ctx:     ctx,
		maxRuns: maxRuns,
		por:     opts.POR,
		dedup:   opts.Dedup,
		seen:    make(map[string]bool),
		points:  make(map[string]*pointNode),
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// claimState registers a machine-state digest; it reports whether this
// run is the first claimer (and therefore owns the subtree).
func (e *explorer) claimState(key uint64) bool {
	_, loaded := e.states.LoadOrStore(key, struct{}{})
	return !loaded
}

// run seeds the frontier with the root prefix and blocks until the pool
// drains (or the search stops early).
func (e *explorer) run(par int) {
	e.queue = [][]int{{}}
	e.pending = 1
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.worker()
		}()
	}
	wg.Wait()
}

func (e *explorer) worker() {
	// One span per worker (not per run: a search performs thousands of
	// runs) so the tracing layer can follow an exploration across the
	// pool. Free when no collector is installed.
	_, sp := obs.StartSpan(e.ctx, "search.worker")
	rec := newRecorder(e)
	runs := 0
	for {
		e.mu.Lock()
		for !e.stopped && e.pending > 0 && len(e.queue) == 0 {
			e.cond.Wait()
		}
		if e.stopped || e.pending == 0 {
			e.mu.Unlock()
			break
		}
		p := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		e.mu.Unlock()

		e.runOne(rec, p)
		runs++

		e.mu.Lock()
		e.pending--
		done := e.pending == 0
		e.mu.Unlock()
		if done {
			e.cond.Broadcast()
		}
	}
	sp.SetAttr("runs", strconv.Itoa(runs))
	sp.End()
}

// runOne executes one prefix on the worker's recorder and folds the
// result (outcome, expansion, stats) into the shared state.
func (e *explorer) runOne(rec *recorder, prefix []int) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	if e.runs >= e.maxRuns {
		// The frontier still held work: the tree is not exhausted.
		e.truncated = true
		e.mu.Unlock()
		return
	}
	e.runs++
	e.mu.Unlock()

	if e.ctx.Err() != nil {
		e.cancelRun()
		return
	}

	rec.reset(prefix)
	iopts := interp.Options{
		Sched:   rec,
		Out:     &rec.sink,
		Budget:  interp.Budget{MaxSteps: e.opts.MaxSteps},
		Context: e.ctx,
	}
	if e.por {
		iopts.Observer = rec
	}
	in := interp.New(e.prog, iopts)
	rec.in = in
	runRes := in.RunMachine()
	if e.ctx.Err() != nil {
		// Interrupted mid-execution: the outcome is an artifact of the
		// cancellation, not a program behavior.
		e.cancelRun()
		return
	}

	out := Outcome{
		ExitCode: runRes.ExitCode,
		Output:   rec.sink.String(),
		UB:       runRes.UB,
		Err:      runRes.Err,
		Trace:    prefix, // the frontier's copy, read-only from here on
	}

	var deliver bool
	var snap Stats
	e.mu.Lock()
	fresh := e.expandLocked(rec, e.maxRuns-e.runs-len(e.queue))
	if !e.stopped && len(fresh) > 0 {
		e.queue = append(e.queue, fresh...)
		e.pending += len(fresh)
	}
	if k := out.Key(); !e.seen[k] {
		e.seen[k] = true
		e.outcomes = append(e.outcomes, out)
		deliver = true
		if out.UB != nil && e.opts.StopAtFirstUB {
			e.stopped = true
			e.truncated = true
		}
	}
	if deliver && e.opts.OnOutcome != nil {
		snap = e.statsLocked()
	}
	e.mu.Unlock()
	e.cond.Broadcast()

	if deliver && e.opts.OnOutcome != nil {
		e.cbMu.Lock()
		e.opts.OnOutcome(out, snap)
		e.cbMu.Unlock()
	}
}

// cancelRun retracts a run the context interrupted and stops the pool.
func (e *explorer) cancelRun() {
	e.mu.Lock()
	e.runs--
	e.truncated = true
	e.stopped = true
	e.mu.Unlock()
	e.cond.Broadcast()
}

func (e *explorer) statsLocked() Stats {
	return Stats{
		OrdersExplored: int64(e.runs),
		OrdersPruned:   e.pruned,
		StatesDeduped:  e.deduped,
	}
}

// expandLocked turns one finished run into the sibling prefixes the
// frontier still needs, at most room of them. Called with e.mu held.
//
// The room cap is load-bearing, not cosmetic: a deep trace (a loop body
// with choice points) holds far more sibling prefixes than the remaining
// run budget, and each one copies its whole pick path — uncapped, a
// single 40k-point trace would materialize gigabytes of prefixes that
// the budget guarantees are dropped at claim time. Suppressing an append
// marks the search truncated, which is the verdict those drops would
// have produced anyway.
func (e *explorer) expandLocked(rec *recorder, room int) [][]int {
	p := len(rec.prefix)
	limit := len(rec.log)
	if rec.dedupHit >= 0 {
		// Another run owns the machine state from this position on; its
		// subtree — including POR bookkeeping for nodes inside it — is
		// that run's responsibility. Expanding here would duplicate the
		// owner's subtree under a different path.
		limit = rec.dedupHit
		e.deduped++
	}
	picks := rec.picks[:0]
	for _, c := range rec.log {
		picks = append(picks, c.Picked)
	}
	rec.picks = picks

	var fresh [][]int
	add := func(g, c int) {
		if len(fresh) >= room {
			e.truncated = true
			return
		}
		fresh = append(fresh, altPrefix(picks, g, c))
	}
	for _, pt := range rec.points {
		if pt.firstPick >= limit {
			break // points are in firstPick order
		}
		gEnd := pt.firstPick + pt.fanout // the point's Pick positions: [firstPick, gEnd)

		if e.por && pt.canonical {
			// Canonical visit: this run carries the node's POR judgment.
			rec.key = appendPathKey(rec.key[:0], picks[:pt.firstPick])
			nd := e.points[string(rec.key)]
			if nd == nil {
				nd = &pointNode{}
				e.points[string(rec.key)] = nd
			}
			if nd.expanded {
				continue
			}
			if pt.conflicted() {
				// Conflict evidence (possibly found late, by a nested
				// alternative's visit): expand every deferred sibling of
				// the node, exactly once.
				nd.expanded = true
				e.pruned -= nd.pruned
				nd.pruned = 0
				for g := pt.firstPick; g < gEnd; g++ {
					n := rec.log[g].N
					for c := 1; c < n; c++ {
						add(g, c)
					}
				}
			} else if pt.firstPick >= p && nd.pruned == 0 {
				// Independent point, first (responsible) visit: defer the
				// siblings and record how many branches that suppressed.
				for g := pt.firstPick; g < gEnd; g++ {
					nd.pruned += int64(rec.log[g].N - 1)
				}
				e.pruned += nd.pruned
			}
			continue
		}

		// Plain expansion (POR off, or a non-canonical visit — whose
		// node was necessarily already expanded): enqueue siblings at
		// fresh positions only.
		for g := max(pt.firstPick, p); g < gEnd && g < limit; g++ {
			n := rec.log[g].N
			for c := 0; c < n; c++ {
				if c != picks[g] {
					add(g, c)
				}
			}
		}
	}
	return fresh
}

// altPrefix builds the sibling prefix picks[0..g) + [c].
func altPrefix(picks []int, g, c int) []int {
	pre := make([]int, g+1)
	copy(pre, picks[:g])
	pre[g] = c
	return pre
}

// appendPathKey appends the encoding of a pick path to b. The encoding
// is exact (no hashing: a collision in the POR registry would silently
// merge two nodes and lose exploration).
func appendPathKey(b []byte, picks []int) []byte {
	for _, c := range picks {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}
