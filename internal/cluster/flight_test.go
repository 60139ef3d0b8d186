package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/driver"
)

func TestIsSourceKey(t *testing.T) {
	good := driver.SourceKey("int main(void){return 0;}", "t.c", driver.Options{})
	if !isSourceKey(good) {
		t.Errorf("real SourceKey %q rejected", good)
	}
	for _, bad := range []string{"", "batch:abc", "raw:deadbeef",
		strings.Repeat("g", 64), strings.Repeat("A", 64), strings.Repeat("0", 63)} {
		if isSourceKey(bad) {
			t.Errorf("key %q accepted", bad)
		}
	}
}

// gateShard is a shard whose /v1/analyze parks until released, so a test
// can observe exactly how many requests the router lets through while one
// is in flight.
type gateShard struct {
	ts      *httptest.Server
	arrived chan struct{}
	release chan struct{}
}

func newGateShard(t *testing.T) *gateShard {
	t.Helper()
	g := &gateShard{
		arrived: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Undefc-Instance", "gate")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		g.arrived <- struct{}{}
		<-g.release
		w.Header().Set("X-Undefc-Instance", "gate")
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"schema":"undefc.api/v1","file":"t.c","result":{"tool":"kcc","verdict":"accepted","run_ns":1}}`)
	})
	g.ts = httptest.NewServer(mux)
	t.Cleanup(g.ts.Close)
	return g
}

func (g *gateShard) addr() string { return strings.TrimPrefix(g.ts.URL, "http://") }

// TestRouterSingleFlight pins the cross-node coalescing contract: while
// one analyze for a key is in flight, identical submissions are held at
// the router — the shard sees exactly one request until the leader
// finishes, and the held followers are counted.
func TestRouterSingleFlight(t *testing.T) {
	g := newGateShard(t)
	rt, ts := newTestRouter(t, Config{Shards: []string{g.addr()}})

	const followers = 3
	var wg sync.WaitGroup
	statuses := make(chan int, followers+1)
	for i := 0; i < followers+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(analyzeBody()))
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}

	// The leader reaches the shard; everyone else must be parked at the
	// router, not at the shard.
	<-g.arrived
	deadline := time.After(5 * time.Second)
	for rt.coalesced.Load() < followers {
		select {
		case <-deadline:
			t.Fatalf("only %d followers coalesced, want %d", rt.coalesced.Load(), followers)
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case <-g.arrived:
		t.Fatal("a follower reached the shard while the leader was in flight")
	default:
	}

	close(g.release)
	wg.Wait()
	close(statuses)
	for st := range statuses {
		if st != http.StatusOK {
			t.Errorf("coalesced request finished with status %d", st)
		}
	}
	// Every follower forwards after release — the shard serves them from
	// its (by then warm) cache; total arrivals = 1 leader + followers.
	total := 1
	for len(g.arrived) > 0 {
		<-g.arrived
		total++
	}
	if total != followers+1 {
		t.Errorf("shard saw %d requests, want %d", total, followers+1)
	}
	if m := rt.Metrics(); m.Coalesced != followers {
		t.Errorf("metrics coalesced = %d, want %d", m.Coalesced, followers)
	}
}
