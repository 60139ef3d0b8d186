package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks. It sorts a copy; xs is left alone.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// allocBytes returns the process's cumulative heap allocation in bytes.
// ReadMemStats stops the world and flushes every P's allocation cache, so
// two readings bracket exactly what was allocated between them.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// allocObjects is allocBytes for the number of heap objects.
func allocObjects() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// gcReading is a snapshot of the Go runtime's collector counters; the
// difference of two readings describes the collector's work in between.
type gcReading struct {
	cycles     uint64
	gcCPU      float64
	totalCPU   float64
	allocBytes uint64
	pauses     *metrics.Float64Histogram
}

var gcMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readGC() gcReading {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	r := gcReading{
		cycles:     s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(),
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[4].Value.Float64Histogram()
		r.pauses = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return r
}

// gcDelta is the collector's work between readings, summed over the
// windows a loop measured.
type gcDelta struct {
	cycles          uint64
	gcCPU, totalCPU float64
	allocBytes      uint64
	pauses          []uint64 // per bucket of pauseBuckets
	pauseBuckets    []float64
}

// add folds the work between readings a and b into d.
func (d *gcDelta) add(a, b gcReading) {
	d.cycles += b.cycles - a.cycles
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
	d.allocBytes += b.allocBytes - a.allocBytes
	if a.pauses == nil || b.pauses == nil || len(a.pauses.Counts) != len(b.pauses.Counts) {
		return
	}
	if d.pauses == nil {
		d.pauses = make([]uint64, len(b.pauses.Counts))
		d.pauseBuckets = b.pauses.Buckets
	}
	for i := range d.pauses {
		d.pauses[i] += b.pauses.Counts[i] - a.pauses.Counts[i]
	}
}

// cpuRatio is GC CPU time over all CPU time.
func (d *gcDelta) cpuRatio() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

// pauseP99MS is the upper bound of the pause-histogram bucket holding the
// 99th percentile (the runtime's buckets are exponential).
func (d *gcDelta) pauseP99MS() float64 {
	var total uint64
	for _, n := range d.pauses {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, n := range d.pauses {
		cum += n
		if cum >= rank {
			hi := d.pauseBuckets[i+1]
			if math.IsInf(hi, 1) {
				hi = d.pauseBuckets[i]
			}
			return hi * 1e3
		}
	}
	return 0
}
