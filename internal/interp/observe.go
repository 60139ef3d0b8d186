package interp

// Emission helpers for the observability layer (internal/obs). Every helper
// begins with the same nil check so the no-observer configuration costs one
// predictable branch per site and constructs nothing. Events are written
// into the interpreter's scratch Event (in.obsEv) — the Interp is already a
// single heap allocation, so emission itself never allocates.

import (
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/token"
	"repro/internal/ub"
)

// classOf maps a memory object kind to the observability access class.
func classOf(k mem.ObjKind) obs.AccessClass {
	switch k {
	case mem.ObjStatic:
		return obs.ClassStatic
	case mem.ObjAuto:
		return obs.ClassAuto
	case mem.ObjHeap:
		return obs.ClassHeap
	case mem.ObjFunc:
		return obs.ClassFunc
	case mem.ObjString:
		return obs.ClassString
	}
	return obs.ClassStatic
}

// obsMem reports one checked memory access (kind is EvRead or EvWrite).
// off is the starting byte offset within o, so the event carries the full
// [off, off+size) footprint the access touched.
func (in *Interp) obsMem(kind obs.EventKind, o *mem.Object, off, size int64, pos token.Pos) {
	if in.obs == nil {
		return
	}
	in.obsEv = obs.Event{Kind: kind, Pos: pos, Class: classOf(o.Kind), Size: size, Obj: int64(o.ID), Off: off}
	in.obs.Event(&in.obsEv)
}

// obsCheckPass reports one UB check that was evaluated and did not fire.
// (Fired checks are reported by ubError, the single construction funnel for
// UB verdicts.)
func (in *Interp) obsCheckPass(b *ub.Behavior, pos token.Pos) {
	// The coverage ledger counts every evaluation, observer or not: the
	// increment is two indexed atomic adds, cheap enough to leave always-on
	// (gated at zero allocations by TestCoverageLedgerAllocs).
	obs.CoverageHit(b.Code, false)
	if in.obs == nil {
		return
	}
	in.obsEv = obs.Event{Kind: obs.EvCheck, Pos: pos, Behavior: b}
	in.obs.Event(&in.obsEv)
}

// order consults the scheduler for an evaluation order over n unsequenced
// operands and reports the choice. All interpreter scheduling goes through
// this method (or order2) rather than the free order() function so EvSched
// events cannot be missed by a new call site.
func (in *Interp) order(n int) []int {
	perm := order(in.sched, n)
	if in.obs != nil {
		choice := 0
		if len(perm) > 0 {
			choice = perm[0]
		}
		in.obsEv = obs.Event{Kind: obs.EvSched, Choice: choice, Fanout: n}
		in.obs.Event(&in.obsEv)
	}
	return perm
}

// order2 is the allocation-free two-operand scheduling point. It makes
// the identical Pick(2), Pick(1) calls order(2) makes (the Trace scheduler
// logs every Pick, so search replay depends on the sequence) and emits the
// identical EvSched event.
func (in *Interp) order2() (first, second int) {
	first = in.sched.Pick(2)
	if first != 0 && first != 1 {
		// Mirror the general path, which would index out of range.
		panic("interp: scheduler Pick(2) out of range")
	}
	in.sched.Pick(1)
	if in.obs != nil {
		in.obsEv = obs.Event{Kind: obs.EvSched, Choice: first, Fanout: 2}
		in.obs.Event(&in.obsEv)
	}
	return first, 1 - first
}

// operandDone tells an OperandTracker scheduler (if one is installed) that
// one operand of the innermost multi-operand scheduling point finished
// evaluating. Callers invoke it after each successfully evaluated operand
// of a point with fanout ≥ 2; error paths skip it, leaving the point
// incomplete (an incomplete point is never pruned).
func (in *Interp) operandDone() {
	if in.tracker != nil {
		in.tracker.OperandDone()
	}
}

// obsBuiltin reports a call to a library builtin.
func (in *Interp) obsBuiltin(name string, pos token.Pos) {
	if in.obs == nil {
		return
	}
	in.obsEv = obs.Event{Kind: obs.EvBuiltin, Pos: pos, Name: name}
	in.obs.Event(&in.obsEv)
}
