package main

import (
	"sort"

	"repro/internal/obs"
)

// layerMetrics assembles the per-layer metrics of a traced run. Unless a
// metric says otherwise it is per workload operation (a regeneration, a
// request, a search), so runs of different lengths compare directly.
// Layers the workload does not run report 0.
//
// Sources: spans give calls and self time; the counting round gives
// allocations, steps and checks; the reference pass gives the program's
// own counters (compile cache, runner, search, /metrics) and the GC.
func layerMetrics(workload string, ref *phase, rec *recorder, traced *tracer, cnt *counter, ops int, plainLat, tracedLat []float64) map[string]metric {
	m := map[string]metric{}
	perOp := func(v float64) float64 { return v / float64(ops) }
	refOps := float64(ref.ops)

	for _, l := range []string{"cpp", "parser", "sema"} {
		a := rec.layer(l)
		m[l+".calls"] = metric{perOp(float64(a.Calls)), "calls/op"}
		m[l+".self_ms"] = metric{perOp(float64(a.SelfNS)) / 1e6, "ms/op"}
		m[l+".us_per_call"] = metric{usPer(a), "us"}
		m[l+".allocs_per_call"] = metric{cnt.allocsPerCall(l), "allocs"}
	}
	ppBytes := float64(traced.ppBytes.Load())
	m["cpp.out_bytes_per_call"] = metric{ratio(ppBytes, float64(rec.layer("cpp").Calls)), "B"}
	m["parser.in_bytes_per_us"] = metric{ratio(ppBytes, float64(rec.layer("parser").SelfNS)/1e3), "B/us"}
	m["sema.static_ub"] = metric{perOp(float64(traced.staticUB.Load())), "count/op"}

	// driver: the compile cache's own counters over the reference pass.
	cache := ref.cache
	lookups := float64(cache.Hits + cache.Misses)
	m["driver.lookups"] = metric{lookups / refOps, "count/op"}
	m["driver.hit_ratio"] = metric{ratio(float64(cache.Hits), lookups), "ratio"}
	m["driver.waits"] = metric{float64(cache.Waits) / refOps, "count/op"}
	m["driver.evictions"] = metric{float64(cache.Evictions) / refOps, "count/op"}
	m["driver.compile_ms"] = metric{ratio(float64(cache.CompileTime.Nanoseconds())/1e6, float64(cache.Compiles)), "ms"}

	in := rec.layer("interp")
	m["interp.runs"] = metric{perOp(float64(in.Calls)), "runs/op"}
	m["interp.self_ms"] = metric{perOp(float64(in.SelfNS)) / 1e6, "ms/op"}
	m["interp.us_per_run"] = metric{usPer(in), "us"}
	m["interp.steps_per_run"] = metric{ratio(float64(cnt.steps), float64(cnt.runs)), "steps"}
	m["interp.allocs_per_run"] = metric{cnt.allocsPerCall("interp"), "allocs"}
	m["interp.checks_per_run"] = metric{ratio(float64(cnt.checks), float64(cnt.runs)), "checks"}

	for _, tl := range []string{"tools.kcc", "tools.valgrind", "tools.checkpointer", "tools.value-analysis"} {
		m[tl+".us_per_cell"] = metric{usPer(rec.layer(tl)), "us"}
	}

	m["runner.cells"] = metric{float64(ref.cells) / refOps, "count/op"}
	m["runner.failed_cells"] = metric{float64(ref.failedCells) / refOps, "count/op"}
	m["runner.retried_cells"] = metric{float64(ref.retriedCells) / refOps, "count/op"}
	m["runner.worker_busy_ratio"] = metric{ratio(float64(ref.busyNS), float64(ref.workerNS)), "ratio"}

	explored := float64(ref.orders)
	m["search.orders"] = metric{explored / refOps, "count/op"}
	m["search.pruned_ratio"] = metric{ratio(float64(ref.pruned), float64(ref.pruned)+explored), "ratio"}
	m["search.deduped"] = metric{float64(ref.deduped) / refOps, "count/op"}
	m["search.us_per_order"] = metric{ratio(float64(ref.searchNS)/1e3, explored), "us"}
	m["search.truncated"] = metric{float64(ref.truncated), "count"}

	for k, v := range serverMetrics(ref) {
		m[k] = v
	}

	m["gc.cycles"] = metric{float64(ref.gc.cycles) / refOps, "cycles/op"}
	m["gc.cpu_ratio"] = metric{ref.gc.cpuRatio(), "ratio"}
	m["gc.pause_p99_ms"] = metric{ref.gc.pauseP99MS(), "ms"}
	m["gc.alloc_mb"] = metric{float64(ref.gc.allocBytes) / (1 << 20) / refOps, "MB/op"}

	m["trace.overhead_pct"] = metric{100 * (median(tracedLat)/median(plainLat) - 1), "%"}
	return m
}

// serverMetrics reads the serving layer from the /metrics deltas around
// the reference pass and the client's own latencies.
func serverMetrics(ref *phase) map[string]metric {
	m := map[string]metric{}
	names := []string{"queue_p50_ms", "queue_p99_ms", "compile_p50_ms", "run_p50_ms", "e2e_p50_ms", "e2e_p99_ms", "http_overhead_ms", "coalesced_ratio", "rejected"}
	for _, n := range names {
		unit := "ms"
		switch n {
		case "coalesced_ratio":
			unit = "ratio"
		case "rejected":
			unit = "count"
		}
		m["server."+n] = metric{0, unit}
	}
	if !ref.served {
		return m
	}
	q := func(stage string, p float64) float64 { return float64(ref.serverLat[stage].Quantile(p)) / 1e6 }
	set := func(n string, v float64) { m["server."+n] = metric{v, m["server."+n].Unit} }
	set("queue_p50_ms", q("queue", 0.50))
	set("queue_p99_ms", q("queue", 0.99))
	set("compile_p50_ms", q("compile", 0.50))
	set("run_p50_ms", q("run", 0.50))
	set("e2e_p50_ms", q("e2e", 0.50))
	set("e2e_p99_ms", q("e2e", 0.99))
	set("http_overhead_ms", quantile(ref.lat, 0.50)-q("e2e", 0.50))
	set("coalesced_ratio", ratio(float64(ref.followers), float64(ref.leaders+ref.followers)))
	set("rejected", float64(ref.rejected))
	return m
}

// window is the histogram of the observations between two readings.
func window(before, after *obs.HistogramSnapshot) *obs.HistogramSnapshot {
	if after == nil {
		return &obs.HistogramSnapshot{}
	}
	if before == nil {
		return after
	}
	return after.Sub(before)
}

func usPer(a layerAgg) float64 { return ratio(float64(a.SelfNS)/1e3, float64(a.Calls)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerGroups sums span self time into the groups the workloads are
// designed around; the root spans' self time is the harness's own.
var layerGroups = map[string]string{
	"cpp": "frontend", "parser": "frontend", "sema": "frontend",
	"driver": "driver",
	"interp": "interp", "search": "search",
	"tools.kcc": "tools", "tools.valgrind": "tools", "tools.checkpointer": "tools", "tools.value-analysis": "tools",
	"case": "harness", "torture": "harness", "request": "harness", "search-op": "harness",
}

// intendedDominant is the layer group each workload is built to load.
var intendedDominant = map[string]string{
	"regen":        "frontend",
	"serve-unique": "frontend",
	"serve-hot":    "interp",
	"explore":      "search",
}

type layerSummary struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Speed is the machine's speed against the reference of calibrate.go
	// (above 1: slower); the per-layer times are as measured.
	Speed float64 `json:"speed"`
	// Layers is each span name's aggregate over the traced replay.
	Layers map[string]layerAgg `json:"layers"`
	// Groups is each layer group's share of all replayed self time.
	Groups   map[string]float64 `json:"group_share"`
	Dominant string             `json:"dominant_group"`
	Intended string             `json:"intended_group"`
	// ReplayP50MS and ReferenceP50MS compare a replayed operation (plain
	// and traced) with the real workload loop's operation.
	ReplayP50MS       float64           `json:"replay_plain_p50_ms"`
	TracedP50MS       float64           `json:"replay_traced_p50_ms"`
	ReferenceP50MS    float64           `json:"reference_p50_ms"`
	Metrics           map[string]metric `json:"per_layer"`
	SearchInterpShare float64           `json:"search_interp_share_estimate,omitempty"`
}

func summarize(workload string, rec *recorder, lm map[string]metric, ref *phase, plainLat, tracedLat []float64) *layerSummary {
	s := &layerSummary{Workload: workload, Layers: map[string]layerAgg{}, Groups: map[string]float64{}, Metrics: lm}
	rec.mu.Lock()
	var total float64
	for name, a := range rec.layers {
		s.Layers[name] = *a
		s.Groups[layerGroups[name]] += float64(a.SelfNS)
		total += float64(a.SelfNS)
	}
	rec.mu.Unlock()
	var groups []string
	for g := range s.Groups {
		s.Groups[g] = ratio(s.Groups[g], total)
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		if g != "harness" && (s.Dominant == "" || s.Groups[g] > s.Groups[s.Dominant]) {
			s.Dominant = g
		}
	}
	s.Intended = intendedDominant[workload]
	s.ReplayP50MS = median(plainLat)
	s.TracedP50MS = median(tracedLat)
	s.ReferenceP50MS = median(ref.lat)
	if workload == "explore" {
		// search.Explore runs the interpreter inside the search span; the
		// replayed single runs price one order, so orders × that price
		// estimates the interpreter's share of search time.
		s.SearchInterpShare = ratio(lm["interp.us_per_run"].Value, lm["search.us_per_order"].Value)
	}
	return s
}
