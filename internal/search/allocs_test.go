package search_test

import (
	"context"
	"testing"

	"repro/internal/search"
)

// maxOrderSearchAllocs is the ceiling for one exhaustive search of the
// setDenom program on one worker (BenchmarkOrderSearch's program): 742
// allocations measured with Go 1.24 on linux/amd64, plus 2%. Before runs
// shared the program's plan and each worker reused its recorder, the
// search cost 1,327.
const maxOrderSearchAllocs = 756

// TestOrderSearchAllocs gates what a search pays per evaluation order.
// One worker, so the count does not depend on how runs spread over
// recorders.
func TestOrderSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on every synchronization")
	}
	prog := compile(t, `
int d = 5;
int setDenom(int x){ return d = x; }
int main(void) { return (10/d) + setDenom(0); }
`)
	got := testing.AllocsPerRun(20, func() {
		res := search.Explore(context.Background(), prog, search.Options{Parallelism: 1})
		if res.UB() == nil {
			t.Fatal("search missed the division by zero")
		}
	})
	if got > maxOrderSearchAllocs {
		t.Errorf("setDenom search: %.0f allocs, ceiling %d", got, maxOrderSearchAllocs)
	}
}
