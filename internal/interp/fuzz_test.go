package interp_test

// FuzzPipeline feeds arbitrary source text through the whole pipeline —
// preprocessor, parser, type checker, interpreter — and holds every input
// to three properties:
//
//   - no panic escapes undefc.RunSource;
//   - attaching an observer changes nothing observable: exit code, output,
//     UB code/position/message and error text match the nil-observer run;
//   - one compiled program is safe to share: eight concurrent runs of the
//     same *sema.Program give results byte-identical to a sequential run
//     (the -j 1 vs -j 8 property of the suite runner and the server, which
//     both share compiled programs across workers).
//
// The frontend rejects most mutations; the survivors are small
// weird-but-valid programs the hand-written suites would never contain.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	undefc "repro"
	"repro/internal/interp"
	"repro/internal/obs"
)

// fuzzBudget makes unbounded loops die quickly, identically on every run.
const fuzzBudget = 200_000

func fuzzOpts(o obs.Observer) undefc.Options {
	return undefc.Options{Exec: interp.Options{Observer: o, Budget: interp.Budget{MaxSteps: fuzzBudget}}}
}

// outcome renders everything observable about a run as one string.
func outcome(res undefc.Result) string {
	s := fmt.Sprintf("exit=%d output=%q", res.ExitCode, res.Output)
	if res.UB != nil {
		s += fmt.Sprintf(" ub=%05d@%s %q", res.UB.Behavior.Code, res.UB.Pos, res.UB.Msg)
	}
	if res.Err != nil {
		s += " err=" + res.Err.Error()
	}
	return s
}

// contained runs fn, turning a panic into a distinguishable outcome so a
// worker goroutine's panic fails the test instead of killing the process.
func contained(fn func() undefc.Result) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = fmt.Sprintf("panic: %v", r)
		}
	}()
	return outcome(fn())
}

func FuzzPipeline(f *testing.F) {
	seeds := []string{
		"int main(void) { int x; return x; }",
		"int main(void) { int x = 0; return (x = 1) + (x = 2); }",
		"int main(void) { int a[3]; a[3] = 1; return 0; }",
		"int main(void) { int i; for (i = 0; i < 5; i++) { if (i == 2) continue; } return i; }",
		"int f(int n) { return n <= 1 ? 1 : n * f(n - 1); }\nint main(void) { return f(6) % 100; }",
		"int main(void) { int x = 7; switch (x % 3) { case 0: return 1; case 1: return 2; default: return 3; } }",
		"int main(void) { goto in; { int y = 1; in: y = 2; return y; } }",
		"int main(void) { int n = 4; int a[n]; a[0] = 9; return a[0]; }",
		"int main(void) { char *p = 0; return *p; }",
		"int main(void) { unsigned u = 0; return (int)(u - 1) < 0; }",
		"struct s { int a; int b; };\nint main(void) { struct s v = {1, 2}; struct s *p = &v; return p->b; }",
		"int main(void) { int x = 1 << 30; return (x + x) > 0; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		plain := contained(func() undefc.Result { return undefc.RunSource(src, "fuzz.c", fuzzOpts(nil)) })
		if strings.HasPrefix(plain, "panic:") {
			t.Fatalf("RunSource(%q) panicked: %s", src, plain)
		}
		observed := contained(func() undefc.Result {
			return undefc.RunSource(src, "fuzz.c", fuzzOpts(&obs.Recorder{}))
		})
		if plain != observed {
			t.Fatalf("observer changed the outcome of %q:\n  nil:      %s\n  recorder: %s", src, plain, observed)
		}

		prog, err := undefc.Compile(src, "fuzz.c", undefc.Options{})
		if err != nil || len(prog.StaticUB) > 0 {
			return // no execution to share
		}
		var got [8]string
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = contained(func() undefc.Result { return undefc.Run(prog, fuzzOpts(nil)) })
			}()
		}
		wg.Wait()
		for i, g := range got {
			if g != plain {
				t.Fatalf("concurrent run %d of one compiled %q diverged:\n  sequential: %s\n  concurrent: %s", i, src, plain, g)
			}
		}
	})
}
