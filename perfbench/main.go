// Command perfbench is undefc's benchmark: four seeded workloads run
// against the default (tree) engine from one process, every output
// checked, every end-to-end metric printed by name and unit.
//
//	bash perfbench/run.sh --workload regen --seed 1 --seconds 18 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	regen         the paper's job: ubsuite -coverage's corpus, one full
//	              regeneration at a time, fresh compile cache, nproc workers
//	serve-unique  closed loop, 1 connection, every request a new program
//	serve-hot     closed loop, nproc connections, a 32-program hot set
//	explore       closed loop of in-process exhaustive order searches
//
// A run measures its named workload for half of --seconds and the other
// two time-measured loops for a quarter each; serve-unique is measured in
// requests, not seconds (see uniqueSlice). So every run reports all
// end-to-end metrics
// and the named workload's are the most precise. The four loops take
// turns in short slices, so every figure samples the whole run, and every
// time is reported on a reference machine (see calibrate.go); the times
// as measured go to standard error. With --trace 1 the run
// instead replays the named workload's inputs through each layer's public
// functions, records spans around every call, and prints per-layer
// metrics; it writes a Chrome trace and a per-layer summary under -out.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

var workloadNames = []string{"regen", "serve-unique", "serve-hot", "explore"}

// Minimum operations per measured loop, whatever the time budget: enough
// regenerations for a median, and enough hot requests and searches for
// their percentiles.
var minOps = map[string]int{"regen": 5, "serve-hot": 2000, "explore": 200}

// serve-unique slices are counted in requests, not time (see uniqueLoop):
// uniqueSlice normally, uniqueNamedSlice when serve-unique is the named
// workload. 16 slices of 110 are 1,760 requests, so 17 lie beyond p99.
const (
	uniqueSlice      = 110
	uniqueNamedSlice = 150
)

// sliceSize is the time and the minimum operation count of one slice of
// workload w, when the run's named workload is named and gets namedTime;
// the other time-measured workloads get half as much.
func sliceSize(w, named string, namedTime time.Duration) (time.Duration, int) {
	if w == "serve-unique" {
		if w == named {
			return 0, uniqueNamedSlice
		}
		return 0, uniqueSlice
	}
	if w != named {
		namedTime /= 2
	}
	return namedTime / cycles, (minOps[w] + cycles - 1) / cycles
}

// cycles is how many slices each workload's share of a run is cut into.
const cycles = 16

// setupReps is how many times a run sets up; setup_s is their median. The
// first set-up is the one the run uses; the others are spread over the
// run, like the slices, and their environments are closed at once.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: regen, serve-unique, serve-hot or explore")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Float64("seconds", 18, "measuring time of the run")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the traced run's Chrome trace and layer summary")
	flag.Parse()

	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(*workload, *seed, budget, *out)
	} else {
		res, err = runMeasured(*workload, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runMeasured is the untraced run: every workload's loop, the named one
// with the largest share of the time, and the end-to-end metrics.
func runMeasured(workload string, seed int64, budget time.Duration) (*result, error) {
	// Every timing is taken twice: as measured, and on the reference
	// machine of calibrate.go, using the speed sampled around it.
	var setupRaw, setupRef []float64
	timedSetup := func() (*env, error) {
		runtime.GC()
		s0 := sampleSpeed()
		t0 := time.Now()
		e, err := setup(seed)
		d := time.Since(t0).Seconds()
		setupRaw = append(setupRaw, d)
		setupRef = append(setupRef, d/((s0+sampleSpeed())/2))
		return e, err
	}
	e, err := timedSetup()
	if err != nil {
		return nil, err
	}
	defer e.close()

	t := &tally{}
	loops := make([]loop, len(workloadNames))
	for i, w := range workloadNames {
		loops[i] = e.newLoop(w, t)
	}
	// Every slice starts from a fresh collection, so no loop is charged for
	// another's garbage. A slice's speed is the mean of the samples taken
	// before and after it; back-to-back slices share the sample between
	// them.
	runtime.GC()
	s0 := sampleSpeed()
	for c := 0; c < cycles; c++ {
		if c > 0 && c%(cycles/(setupReps-1)) == 0 {
			again, err := timedSetup()
			if err != nil {
				return nil, err
			}
			again.close()
			runtime.GC()
			s0 = sampleSpeed()
		}
		for i, w := range workloadNames {
			p := loops[i].measures()
			n0, w0 := len(p.lat), p.wall
			loops[i].slice(sliceSize(w, workload, budget/2))
			runtime.GC()
			s1 := sampleSpeed()
			speed := (s0 + s1) / 2
			s0 = s1
			for _, v := range p.lat[n0:] {
				p.refLat = append(p.refLat, v/speed)
			}
			p.refWall += time.Duration(float64(p.wall-w0) / speed)
		}
	}
	again, err := timedSetup()
	if err != nil {
		return nil, err
	}
	again.close()
	rg, un, ho, ex := loops[0].finish(), loops[1].finish(), loops[2].finish(), loops[3].finish()
	if un == nil || ho == nil {
		return nil, fmt.Errorf("a serving workload could not run")
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d regenerations, %d unique, %d hot, %d searches\n",
		workload, seed, rg.ops, un.ops, ho.ops, ex.ops)

	figures := func(setupS []float64, lat func(*phase) []float64, wall func(*phase) time.Duration) map[string]metric {
		return map[string]metric{
			"setup_s":                {median(setupS), "s"},
			"peak_heap_mb":           {max(rg.heapMB, un.heapMB, ho.heapMB, ex.heapMB), "MB"},
			"regen_s":                {median(lat(rg)) / 1e3, "s"},
			"regen_alloc_mb":         {rg.alloc / (1 << 20), "MB"},
			"unique_p50_ms":          {quantile(lat(un), 0.50), "ms"},
			"unique_p99_ms":          {quantile(lat(un), 0.99), "ms"},
			"unique_alloc_kb":        {un.alloc / 1024, "KB"},
			"hot_rps":                {float64(ho.ops) / wall(ho).Seconds(), "1/s"},
			"hot_p50_ms":             {quantile(lat(ho), 0.50), "ms"},
			"hot_p99_ms":             {quantile(lat(ho), 0.99), "ms"},
			"hot_alloc_kb":           {ho.alloc / 1024, "KB"},
			"explore_searches_per_s": {float64(ex.ops) / wall(ex).Seconds(), "1/s"},
			"explore_p50_ms":         {quantile(lat(ex), 0.50), "ms"},
			"explore_alloc_kb":       {ex.alloc / 1024, "KB"},
		}
	}
	raw := figures(setupRaw, func(p *phase) []float64 { return p.lat }, func(p *phase) time.Duration { return p.wall })
	line, err := json.Marshal(map[string]any{"metrics": raw})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: raw %s\n", line)
	ref := figures(setupRef, func(p *phase) []float64 { return p.refLat }, func(p *phase) time.Duration { return p.refWall })
	return finish(t, ref), nil
}

func finish(t *tally, m map[string]metric) *result {
	failed := t.failed.Load()
	return &result{Correct: failed == 0, Attempted: t.attempted.Load(), Failed: failed, Metrics: m}
}
