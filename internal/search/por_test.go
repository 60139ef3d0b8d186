package search_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/search"
)

// keySet reduces a result to its sorted outcome keys, the unit of
// comparison for every differential check in this package: two searches
// agree iff they found exactly the same behaviors, regardless of how many
// orders each had to run to find them.
func keySet(res search.Result) []string {
	keys := make([]string, 0, len(res.Outcomes))
	for _, o := range res.Outcomes {
		keys = append(keys, o.Key())
	}
	sort.Strings(keys)
	return keys
}

func sameKeys(a, b search.Result) bool {
	ka, kb := keySet(a), keySet(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// matrixPrograms are the order-sensitive shapes the search exists for;
// every POR × dedup × parallelism combination must report the
// same behavior set as the sequential DFS oracle on each of them.
var matrixPrograms = []struct {
	name string
	src  string
}{
	{"setdenom", `
int d = 5;
int setDenom(int x){ return d = x; }
int main(void) { return (10/d) + setDenom(0); }
`},
	{"unseq_incr", `
int main(void) {
	int x = 1;
	return x + x++;
}
`},
	{"unseq_assign_pair", `
int main(void) {
	int x = 0;
	return (x = 1) + (x = 2);
}
`},
	{"order_dependent_calls", `
int x = 0;
int bump(void) { return ++x; }
int twice(void) { return x * 2; }
int main(void) { return bump() + twice(); }
`},
	{"commuting_pair", `
int a, b;
int main(void) {
	return (a = 1) + (b = 2);
}
`},
	{"nested_mixed", `
int a = 1, b = 2;
int f(void) { return a++; }
int main(void) {
	return (f() + b) * (b + 1);
}
`},
}

// TestExploreConfigMatrix is the in-package differential gate: for each
// order-sensitive program, the parallel explorer must produce the exact
// outcome set of the sequential DFS oracle under every configuration.
func TestExploreConfigMatrix(t *testing.T) {
	ctx := context.Background()
	for _, p := range matrixPrograms {
		prog := compile(t, p.src)
		oracle := search.ExploreDFS(ctx, prog, search.Options{MaxRuns: 4096})
		if !oracle.Exhausted {
			t.Fatalf("%s: oracle did not exhaust in 4096 runs", p.name)
		}
		for _, por := range []bool{false, true} {
			for _, dedup := range []bool{false, true} {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/por=%v/dedup=%v/j%d", p.name, por, dedup, par)
					res := search.Explore(ctx, prog, search.Options{
						MaxRuns:     8192,
						Parallelism: par,
						POR:         por,
						Dedup:       dedup,
					})
					if !res.Exhausted {
						t.Errorf("%s: not exhausted after %d runs", name, res.Runs)
						continue
					}
					if !sameKeys(oracle, res) {
						t.Errorf("%s: outcome sets differ\noracle:  %v\nexplore: %v",
							name, keySet(oracle), keySet(res))
					}
					if res.Stats.Parallelism != par {
						t.Errorf("%s: stats parallelism = %d", name, res.Stats.Parallelism)
					}
				}
			}
		}
	}
}

// deepNest builds a sum of n assignments to n distinct variables:
// (a0 = 1) + (a1 = 1) + ... — every evaluation order is defined and
// equivalent, but the plain search still has to enumerate all of them,
// which is exponential in n. All operand footprints are disjoint writes,
// so POR proves the whole nest commutes.
func deepNest(n int) string {
	var b strings.Builder
	b.WriteString("int ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "a%d", i)
	}
	b.WriteString(";\nint main(void) {\n\treturn ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "(a%d = 1)", i)
	}
	b.WriteString(";\n}\n")
	return b.String()
}

// TestPORCompletesWhereDFSExhausts is the PR's acceptance bar: a nest
// that blows the sequential searcher's 10000-run budget finishes
// exhaustively — in a handful of runs — once commuting interleavings are
// pruned.
func TestPORCompletesWhereDFSExhausts(t *testing.T) {
	const n = 15
	ctx := context.Background()
	prog := compile(t, deepNest(n))

	oracle := search.ExploreDFS(ctx, prog, search.Options{MaxRuns: 10000})
	if oracle.Exhausted {
		t.Fatalf("nest too shallow: DFS exhausted in %d runs", oracle.Runs)
	}

	res := search.Explore(ctx, prog, search.Options{MaxRuns: 10000, POR: true})
	if !res.Exhausted {
		t.Fatalf("POR search did not exhaust (%d runs)", res.Runs)
	}
	if res.Runs >= 100 {
		t.Errorf("POR should collapse the commuting nest to a few runs, ran %d", res.Runs)
	}
	if res.Stats.OrdersPruned == 0 {
		t.Error("no orders pruned on an all-commuting nest")
	}
	if ub := res.UB(); ub != nil {
		t.Fatalf("unexpected UB: %v", ub)
	}
	if len(res.Outcomes) != 1 {
		t.Fatalf("outcomes = %v, want exactly one", keySet(res))
	}
	if res.Outcomes[0].ExitCode != n {
		t.Errorf("exit = %d, want %d", res.Outcomes[0].ExitCode, n)
	}
}

// TestPORStillFindsUB plants one genuinely conflicting pair inside an
// otherwise commuting nest: pruning must not hide the undefined order.
func TestPORStillFindsUB(t *testing.T) {
	src := `
int a, b, c, x;
int main(void) {
	return (a = 1) + (b = 1) + (x = 1) + (x = 2) + (c = 1);
}
`
	ctx := context.Background()
	prog := compile(t, src)
	oracle := search.ExploreDFS(ctx, prog, search.Options{MaxRuns: 4096})
	if !oracle.Exhausted {
		t.Fatal("oracle did not exhaust")
	}
	res := search.Explore(ctx, prog, search.Options{MaxRuns: 4096, POR: true, Parallelism: 4})
	if !res.Exhausted {
		t.Fatalf("not exhausted (%d runs)", res.Runs)
	}
	if res.UB() == nil {
		t.Fatal("POR pruned away the unsequenced-write UB")
	}
	if !sameKeys(oracle, res) {
		t.Errorf("outcome sets differ\noracle:  %v\nexplore: %v", keySet(oracle), keySet(res))
	}
}

// TestDedupCollapsesConvergentStates: two back-to-back commuting pairs.
// Whatever order the first statement ran in, the store is identical at the
// second statement's choice point, so with dedup on the second subtree is
// explored once per distinct state, not once per path.
func TestDedupCollapsesConvergentStates(t *testing.T) {
	src := `
int a, b;
int main(void) {
	int r = (a = 1) + (b = 1);
	r += (a = 2) + (b = 2);
	return r;
}
`
	ctx := context.Background()
	prog := compile(t, src)
	oracle := search.ExploreDFS(ctx, prog, search.Options{MaxRuns: 4096})
	if !oracle.Exhausted {
		t.Fatal("oracle did not exhaust")
	}
	res := search.Explore(ctx, prog, search.Options{MaxRuns: 4096, Dedup: true, Parallelism: 2})
	if !res.Exhausted {
		t.Fatalf("not exhausted (%d runs)", res.Runs)
	}
	if !sameKeys(oracle, res) {
		t.Errorf("outcome sets differ\noracle:  %v\nexplore: %v", keySet(oracle), keySet(res))
	}
	if res.Stats.StatesDeduped == 0 {
		t.Error("expected converged states to be deduplicated")
	}
	if res.Runs >= oracle.Runs {
		t.Errorf("dedup ran %d orders, oracle ran %d — nothing was saved", res.Runs, oracle.Runs)
	}
}

// TestOnOutcomeStreams checks the streaming callback: invoked once per
// distinct behavior, with monotonically nondecreasing run counters, and
// in total agreement with the final result.
func TestOnOutcomeStreams(t *testing.T) {
	prog := compile(t, matrixPrograms[0].src)
	var got []string
	var lastRuns int64 = -1
	res := search.Explore(context.Background(), prog, search.Options{
		Parallelism: 4,
		POR:         true,
		OnOutcome: func(o search.Outcome, st search.Stats) {
			got = append(got, o.Key())
			if st.OrdersExplored < lastRuns {
				t.Errorf("stats went backwards: %d after %d", st.OrdersExplored, lastRuns)
			}
			lastRuns = st.OrdersExplored
		},
	})
	if len(got) != len(res.Outcomes) {
		t.Fatalf("callback fired %d times for %d outcomes", len(got), len(res.Outcomes))
	}
	sort.Strings(got)
	want := keySet(res)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("streamed set %v != result set %v", got, want)
		}
	}
}

// TestCanceledContext: a context canceled before the search starts must
// not be reported as exhaustive.
func TestCanceledContext(t *testing.T) {
	prog := compile(t, matrixPrograms[0].src)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := search.Explore(ctx, prog, search.Options{Parallelism: 4})
	if res.Exhausted {
		t.Error("canceled search claims exhaustion")
	}
	if res.Runs != 0 {
		t.Errorf("canceled search still ran %d orders", res.Runs)
	}
}

// TestDeprecatedContextOption: the pre-redesign Options.Context shim must
// keep working for callers that have not migrated to the ctx argument.
func TestDeprecatedContextOption(t *testing.T) {
	prog := compile(t, matrixPrograms[0].src)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	//lint:ignore SA1019 exercising the deprecated field on purpose
	res := search.Explore(nil, prog, search.Options{Context: ctx}) //nolint:staticcheck
	if res.Exhausted || res.Runs != 0 {
		t.Errorf("deprecated Context ignored: runs=%d exhausted=%v", res.Runs, res.Exhausted)
	}
}
