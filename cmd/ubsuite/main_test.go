package main

import (
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/runner"
	"repro/internal/tools"
)

// TestContainmentGate is the make-check gate for the fault-containment
// layer: for every registered fault site and at -j 1, 2 and 8, a panic
// injected into a full suite run must leave the process exit code 0
// (graceful degradation is the default contract) with exactly one failed
// cell recorded in the JSON report; the same run under -strict must exit
// non-zero.
func TestContainmentGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ubsuite binary")
	}
	bin := filepath.Join(t.TempDir(), "ubsuite")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	sites := []string{
		driver.SiteCompile,
		tools.SiteAnalyze,
		interp.SiteStep,
		runner.SiteAnalyze,
	}
	for _, site := range sites {
		t.Run(site, func(t *testing.T) {
			// The count must not depend on the worker count: a contained
			// panic is one cell's failure however many workers share the
			// compile cache with it.
			for _, j := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("j=%d", j), func(t *testing.T) {
					cmd := exec.Command(bin, "-suite", "juliet", "-json", "-j", fmt.Sprint(j), "-inject", site+"=panic*1")
					stdout, err := cmd.Output()
					if err != nil {
						t.Fatalf("exit status = %v, want 0: the suite must survive a panic at %s", err, site)
					}
					var rep runner.SuiteReport
					if err := json.Unmarshal(stdout, &rep); err != nil {
						t.Fatalf("report does not parse: %v", err)
					}
					if rep.Schema != runner.Schema {
						t.Fatalf("schema = %q", rep.Schema)
					}
					if len(rep.Failures) == 0 {
						t.Fatal("no failure recorded in the JSON report")
					}
					f := rep.Failures[0]
					if f.Verdict != tools.InternalError || f.Stack == "" {
						t.Errorf("failure = %+v, want internal-error with captured stack", f)
					}
					// Exactly one cell was hit; every other cell carries a verdict.
					var internal int
					for _, c := range rep.Cases {
						for _, r := range c.Results {
							if r.Verdict == tools.InternalError {
								internal++
							}
						}
					}
					if internal != 1 {
						t.Errorf("%d internal-error cells, want 1 (*1 caps the injection)", internal)
					}
				})
			}
		})
	}

	// -strict turns recorded failures into a non-zero exit.
	cmd := exec.Command(bin, "-suite", "juliet", "-json", "-strict",
		"-inject", runner.SiteAnalyze+"=panic*1")
	if err := cmd.Run(); err == nil {
		t.Error("-strict run with an injected panic exited 0, want non-zero")
	}
}
