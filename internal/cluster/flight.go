package cluster

// The router's cross-node single-flight: N clients submitting the same
// cold translation unit through the router cost the cluster one compile,
// with the followers forwarded only after the leader's flight lands —
// onto a now-warm compile cache, since the ring routes them to the same
// shard.

import "sync"

// isSourceKey reports whether a ring key is a driver.SourceKey — the only
// keys the flight table coalesces on (batch and unparseable bodies route
// on raw-bytes keys with a prefix, which fail this test).
func isSourceKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// flightTable is the cluster-wide single-flight registry. The first
// request for a key becomes the leader and forwards immediately; later
// requests for the same key get the leader's done channel and hold their
// forward until it closes. No result is shared through the table — the
// point is ordering, not caching: a follower released after the leader
// lands on the shard whose compile cache the leader just warmed, instead
// of racing a duplicate compile through the cluster.
type flightTable struct {
	mu sync.Mutex
	m  map[string]chan struct{}
}

func newFlightTable() *flightTable {
	return &flightTable{m: make(map[string]chan struct{})}
}

// begin registers the caller as leader for key (wait == nil), or returns
// the current leader's done channel to wait on.
func (f *flightTable) begin(key string) (wait <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.m[key]; ok {
		return ch
	}
	f.m[key] = make(chan struct{})
	return nil
}

// end releases the leader's flight, waking every follower.
func (f *flightTable) end(key string) {
	f.mu.Lock()
	ch := f.m[key]
	delete(f.m, key)
	f.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}
