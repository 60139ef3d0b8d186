package interp_test

// End-to-end tests for the UB coverage ledger: running programs through the
// public entry point must move the obs counters for exactly the behaviors
// whose checks were evaluated.

import (
	"testing"

	undefc "repro"
	"repro/internal/obs"
	"repro/internal/ub"
)

func coverageRow(t *testing.T, code int) obs.CoverageRow {
	t.Helper()
	led := obs.CoverageSnapshot()
	for _, r := range led.Behaviors {
		if r.Code == code {
			return r
		}
	}
	t.Fatalf("behavior %d not in coverage snapshot (check-site registry missing it)", code)
	return obs.CoverageRow{}
}

func TestCoverageLedgerCountsEvaluationsAndFires(t *testing.T) {
	obs.ResetCoverage()

	// A defined division: the DivZero check is evaluated and passes.
	res := undefc.RunSource(`int main(void){ int d = 2; return 10 / d - 5; }`, "ok.c", undefc.Options{})
	if res.UB != nil || res.Err != nil {
		t.Fatalf("clean program failed: %v %v", res.UB, res.Err)
	}
	r := coverageRow(t, ub.DivByZero.Code)
	if r.Evaluated == 0 {
		t.Fatal("defined division did not count a DivByZero evaluation")
	}
	if r.Fired != 0 {
		t.Fatalf("defined division counted %d DivByZero fires", r.Fired)
	}

	// An undefined division: the same check fires.
	res = undefc.RunSource(`int main(void){ int d = 0; return 10 / d; }`, "div0.c", undefc.Options{})
	if res.UB == nil || res.UB.Behavior.Code != ub.DivByZero.Code {
		t.Fatalf("div-by-zero program verdict: %+v", res.UB)
	}
	r = coverageRow(t, ub.DivByZero.Code)
	if r.Fired != 1 {
		t.Fatalf("DivByZero fired count %d, want 1", r.Fired)
	}
	if r.Evaluated < 2 {
		t.Fatalf("DivByZero evaluated count %d, want >= 2", r.Evaluated)
	}
	if len(r.Gates) == 0 || len(r.Sites) == 0 {
		t.Fatalf("DivByZero row missing registry identity: %+v", r)
	}
}
