package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// recorder keeps the traced run's spans in memory. Every span has a name
// (the layer it brackets), a start and an end, the span that caused it,
// and the id of the workload operation it belongs to. Spans are recorded
// by the benchmark around its own calls into each layer; the program is
// not instrumented. A nil *recorder records nothing, so the same replay
// code serves the untraced reference pass.
//
// Aggregates are kept online, so self time (duration minus the time the
// span's children cover) is exact however many spans a run makes; only
// the first maxKept spans are retained for the Chrome trace.
type recorder struct {
	origin time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	layers  map[string]*layerAgg
	kept    []spanRec
	dropped int
}

const maxKept = 200000

type layerAgg struct {
	Calls  int64 `json:"calls"`
	SelfNS int64 `json:"self_ns"`
	WallNS int64 `json:"wall_ns"`
}

type spanRec struct {
	Name   string
	ID     uint64
	Parent uint64
	Op     uint64
	Tid    int
	Start  time.Duration
	Dur    time.Duration
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), layers: map[string]*layerAgg{}}
}

// span is one open layer interval. Children of a span run on the same
// goroutine and one at a time, so their durations never overlap and
// self time is duration minus their sum.
type span struct {
	rec     *recorder
	parent  *span
	name    string
	id, op  uint64
	tid     int
	start   time.Time
	childNS int64
}

// root opens the span of one workload operation.
func (r *recorder) root(name string, op uint64, tid int) *span {
	if r == nil {
		return nil
	}
	return &span{rec: r, name: name, id: r.nextID.Add(1), op: op, tid: tid, start: time.Now()}
}

// child opens a span caused by s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{rec: s.rec, parent: s, name: name, id: s.rec.nextID.Add(1), op: s.op, tid: s.tid, start: time.Now()}
}

// end closes s and folds it into its layer's aggregate.
func (s *span) end() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	if s.parent != nil {
		s.parent.childNS += dur.Nanoseconds()
	}
	r := s.rec
	var parentID uint64
	if s.parent != nil {
		parentID = s.parent.id
	}
	r.mu.Lock()
	agg := r.layers[s.name]
	if agg == nil {
		agg = &layerAgg{}
		r.layers[s.name] = agg
	}
	agg.Calls++
	agg.SelfNS += dur.Nanoseconds() - s.childNS
	agg.WallNS += dur.Nanoseconds()
	if len(r.kept) < maxKept {
		r.kept = append(r.kept, spanRec{Name: s.name, ID: s.id, Parent: parentID, Op: s.op, Tid: s.tid, Start: s.start.Sub(r.origin), Dur: dur})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// layer returns the aggregate of one span name (zero when never seen).
func (r *recorder) layer(name string) layerAgg {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.layers[name]; a != nil {
		return *a
	}
	return layerAgg{}
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the retained spans as Chrome trace-event JSON
// (load it in chrome://tracing or Perfetto).
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	events := make([]chromeEvent, 0, len(r.kept))
	for _, s := range r.kept {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Tid,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	dropped := r.dropped
	r.mu.Unlock()
	sort.Slice(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": dropped},
	}
	return writeJSONFile(path, doc)
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
