package search

// The per-run recorder: one instance is the run's Scheduler, its
// OperandTracker, and its Observer at once, so it sees every decision,
// every operand boundary, and every memory access of exactly one
// execution. From that triple view it reconstructs the run's choice
// points and attributes an effect footprint to each operand — the
// evidence partial-order reduction prunes (or refuses to prune) on.
//
// Structure recovery needs no protocol beyond what the interpreter
// already guarantees (see interp.OperandTracker): a scheduling point of
// fanout n draws its whole permutation eagerly — Pick(n), Pick(n−1), …,
// Pick(1) are contiguous, before any operand runs — so the first Pick
// after an operand phase opens a new innermost point, and each
// OperandDone closes one operand of the innermost open point. Fanout-1
// points make no Pick at all, so every logged decision belongs to a
// point with alternatives.

import (
	"bytes"

	"repro/internal/interp"
	"repro/internal/obs"
)

// byteSpan is one contiguous footprint range: [off, off+n) on object obj.
type byteSpan struct {
	obj, off, n int64
}

func spansOverlap(a, b []byteSpan) bool {
	for i := range a {
		for j := range b {
			if a[i].obj == b[j].obj && a[i].off < b[j].off+b[j].n && b[j].off < a[i].off+a[i].n {
				return true
			}
		}
	}
	return false
}

// footprint is the observed effect set of one operand of one choice
// point. Reads and writes come from observer events; the flag effects
// come from counter deltas snapshotted around the operand (allocation,
// lifetime ends, address exposure, output) or from builtin calls (RNG,
// raw-memory builtins).
type footprint struct {
	reads  []byteSpan
	writes []byteSpan

	alloc  bool // allocated an object (IDs are order-sensitive)
	kills  bool // ended a lifetime (unevented effect; conflicts with all)
	output bool // wrote to the program's output stream
	rng    bool // advanced the rand() state
	synth  bool // exposed a synthetic object address as an integer
	// barrier marks an operand that passed a sequence point (a call's
	// §6.5.2.2:10 point, a comma, && … — anything that clears the
	// locsWrittenTo/locsRead sets). Moving a clear across a sibling's
	// accesses changes which accesses are still pending when a later
	// conflicting access is checked, so a barrier operand commutes only
	// with access-free siblings — even when every byte span is disjoint.
	barrier bool
	// universal marks an operand that called a builtin which touches
	// memory without observer events (memcpy, strcpy, printf's format
	// walk, …): its true footprint is unknown, so it conflicts with
	// every sibling.
	universal bool
}

// conflicts reports whether two operand footprints fail to commute: if it
// returns false, running them in either order reaches the same machine
// state and produces the same observables.
func (f *footprint) conflicts(g *footprint) bool {
	if f.universal || g.universal {
		return true
	}
	if f.kills || g.kills {
		return true // which object IDs die when is not tracked per byte
	}
	if f.alloc && g.alloc {
		return true // allocation order assigns observable object IDs
	}
	if f.output && g.output {
		return true // output interleaving is the observable itself
	}
	if f.rng && g.rng {
		return true // both advance the same RNG stream
	}
	if (f.synth && g.alloc) || (g.synth && f.alloc) {
		return true // exposed addresses observe allocation order
	}
	if (f.barrier && g.hasAccess()) || (g.barrier && f.hasAccess()) {
		return true // a sequence point flushes the sibling's pending accesses
	}
	return spansOverlap(f.writes, g.writes) ||
		spansOverlap(f.writes, g.reads) ||
		spansOverlap(f.reads, g.writes)
}

func (f *footprint) hasAccess() bool { return len(f.reads)+len(f.writes) > 0 }

// reset empties the footprint for the next run, keeping the capacity of
// its span slices.
func (f *footprint) reset() {
	*f = footprint{reads: f.reads[:0], writes: f.writes[:0]}
}

// pointRec is one choice point of the run under reconstruction.
type pointRec struct {
	// firstPick is the log position of the point's Pick(n) — the node of
	// the decision tree the point sits at is identified by the pick path
	// up to (excluding) this position.
	firstPick int
	fanout    int
	// canonical reports that every decision of this point's group was 0
	// (the leftmost order) — only canonical visits carry POR bookkeeping
	// for the node, so each node is judged by exactly one order shape.
	canonical bool
	// complete reports that all fanout operands finished evaluating. A
	// run that errors mid-point leaves it incomplete, and an incomplete
	// point is never pruned (its unseen operands could conflict).
	complete bool
	done     int // operands finished so far = index of the current bucket
	ops      []footprint

	// Counter snapshots taken at the start of the current operand; the
	// deltas at OperandDone set the footprint's flag effects.
	objsSnap  int
	killsSnap int64
	synthSnap int64
	outSnap   int
}

func (pt *pointRec) snap(r *recorder) {
	st := r.in.MemStore()
	pt.objsSnap = st.NumObjects()
	pt.killsSnap = st.Kills()
	pt.synthSnap = r.in.SynthAddrCasts()
	pt.outSnap = r.sink.Len()
}

func (pt *pointRec) capture(r *recorder) {
	f := &pt.ops[pt.done]
	st := r.in.MemStore()
	if st.NumObjects() != pt.objsSnap {
		f.alloc = true
	}
	if st.Kills() != pt.killsSnap {
		f.kills = true
	}
	if r.in.SynthAddrCasts() != pt.synthSnap {
		f.synth = true
	}
	if r.sink.Len() != pt.outSnap {
		f.output = true
	}
	pt.done++
}

// conflicted reports whether any pair of the point's operands fails to
// commute. An incomplete point (a run error skipped an OperandDone)
// always conflicts: pruning needs positive evidence about every operand.
func (pt *pointRec) conflicted() bool {
	if !pt.complete {
		return true
	}
	for i := range pt.ops {
		for j := i + 1; j < len(pt.ops); j++ {
			if pt.ops[i].conflicts(&pt.ops[j]) {
				return true
			}
		}
	}
	return false
}

// recorder drives and observes one run at a time. Each worker keeps one
// and resets it between runs, so the point records, their footprints, the
// choice log, the stack and the output sink keep their capacity: a run
// allocates only what grows past the largest run before it. Nothing the
// recorder holds escapes a run — expandLocked copies what the frontier
// keeps before the next run starts.
type recorder struct {
	exp    *explorer
	prefix []int
	in     *interp.Interp
	sink   bytes.Buffer

	log []interp.Choice
	pos int

	// track enables footprint reconstruction (set iff POR is on; the
	// recorder is also installed as the run's Observer only then).
	track bool

	stack  []*pointRec // open points, innermost last
	points []*pointRec // every point, in open (= firstPick) order; the
	// records past len(points) are earlier runs', kept for reuse

	// groupLeft counts the Picks still to be drawn for the innermost
	// point's permutation; 0 means the next Pick opens a new point.
	groupLeft int

	// dedupHit is the log position at which this run found its machine
	// state already owned by another run (-1: never). Expansion and POR
	// bookkeeping stop at this position — the owning run is responsible
	// for the subtree.
	dedupHit int

	// Scratch for expandLocked: the run's picks and a POR registry key.
	picks []int
	key   []byte
}

func newRecorder(e *explorer) *recorder {
	return &recorder{exp: e, track: e.por}
}

// reset prepares the recorder for the run of prefix.
func (r *recorder) reset(prefix []int) {
	r.prefix = prefix
	r.in = nil
	r.sink.Reset()
	r.log = r.log[:0]
	r.pos = 0
	r.stack = r.stack[:0]
	r.points = r.points[:0]
	r.groupLeft = 0
	r.dedupHit = -1
}

// newPoint opens a point record of fanout n at log position first,
// reusing a record (and its footprints) from an earlier run if one is
// left.
func (r *recorder) newPoint(first, n int) *pointRec {
	var pt *pointRec
	if len(r.points) < cap(r.points) {
		pt = r.points[:len(r.points)+1][len(r.points)]
	}
	if pt == nil {
		pt = &pointRec{}
	}
	ops := pt.ops
	if cap(ops) < n {
		ops = append(ops[:cap(ops)], make([]footprint, n-cap(ops))...)
	}
	ops = ops[:n]
	for i := range ops {
		ops[i].reset()
	}
	*pt = pointRec{firstPick: first, fanout: n, canonical: true, ops: ops}
	r.points = append(r.points, pt)
	return pt
}

// Pick implements interp.Scheduler: replay the prefix, then leftmost —
// the same decision rule as interp.Trace — while reconstructing point
// structure.
func (r *recorder) Pick(n int) int {
	c := 0
	if r.pos < len(r.prefix) {
		c = r.prefix[r.pos]
	}
	if c >= n || c < 0 {
		c = 0
	}
	if r.groupLeft == 0 && n >= 2 {
		// First Pick of a new point's permutation draw.
		if r.exp.dedup && len(r.stack) == 0 && r.pos >= len(r.prefix) && r.dedupHit < 0 {
			// Top-level choice point in fresh territory: hash the machine
			// state; if another run owns it, the subtree below is theirs.
			key := r.in.StateDigest()
			key ^= hashOutput(r.sink.Bytes())
			if !r.exp.claimState(key) {
				r.dedupHit = r.pos
			}
		}
		pt := r.newPoint(r.pos, n)
		if r.track {
			pt.snap(r)
		}
		r.stack = append(r.stack, pt)
		r.groupLeft = n
	}
	if r.groupLeft > 0 {
		r.groupLeft--
		top := r.stack[len(r.stack)-1]
		if c != 0 {
			top.canonical = false
		}
	}
	r.log = append(r.log, interp.Choice{N: n, Picked: c})
	r.pos++
	return c
}

// OperandDone implements interp.OperandTracker: one operand of the
// innermost open point finished.
func (r *recorder) OperandDone() {
	if len(r.stack) == 0 {
		return
	}
	top := r.stack[len(r.stack)-1]
	if r.track {
		top.capture(r)
	} else {
		top.done++
	}
	if top.done == top.fanout {
		top.complete = true
		r.stack = r.stack[:len(r.stack)-1]
		return
	}
	if r.track {
		top.snap(r)
	}
}

// Event implements obs.Observer: attribute each memory access (and each
// builtin's effect class) to the current operand of every open point —
// an access inside a nested point is part of the enclosing operand too.
func (r *recorder) Event(ev *obs.Event) {
	if !r.track || len(r.stack) == 0 {
		return
	}
	switch ev.Kind {
	case obs.EvRead:
		s := byteSpan{obj: ev.Obj, off: ev.Off, n: ev.Size}
		for _, pt := range r.stack {
			f := &pt.ops[pt.done]
			f.reads = append(f.reads, s)
		}
	case obs.EvWrite:
		s := byteSpan{obj: ev.Obj, off: ev.Off, n: ev.Size}
		for _, pt := range r.stack {
			f := &pt.ops[pt.done]
			f.writes = append(f.writes, s)
		}
	case obs.EvSeqPoint:
		// Conservative: a callee-internal sequence point only clears the
		// callee's own sets, but the event stream does not distinguish
		// activations, so every flush is treated as a caller barrier.
		for _, pt := range r.stack {
			pt.ops[pt.done].barrier = true
		}
	case obs.EvBuiltin:
		eff := interp.EffectOf(ev.Name)
		if eff == interp.EffectPure {
			return
		}
		for _, pt := range r.stack {
			f := &pt.ops[pt.done]
			if eff == interp.EffectRNG {
				f.rng = true
			} else {
				f.universal = true
			}
		}
	}
}

func hashOutput(s []byte) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
