package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The machine this benchmark runs on is shared: the same code runs up to
// 1.6 times slower for seconds or minutes at a time, on every workload at
// once. To keep two runs of the same program comparable, a run samples
// the machine's speed with a fixed calibration kernel before and after
// every slice, and reports each time taken in the slice on a reference
// machine where the kernel takes calibRefMS:
//
//	reported time = measured time / speed
//	speed         = mean of the two samples / calibRefMS
//
// The kernel is the benchmark's own code and calls no program code, so a
// change to the program moves the workloads and not the kernel. The raw
// figures are printed to standard error next to the reported ones.

// calibRefMS is the reference machine's sample: about what an unloaded
// 2-CPU x86 VM gives, so reported figures stay close to what a quiet
// machine shows.
const calibRefMS = 1.3

// calChain is a 1 MiB random cycle the kernel chases through: dependent
// loads that miss the first two cache levels, like the interpreter's
// pointer-heavy work.
var calChain = func() []uint32 {
	const n = 1 << 18
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint32(2463534242)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x % uint32(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	chain := make([]uint32, n)
	for i := range perm {
		chain[perm[i]] = perm[(i+1)%n]
	}
	return chain
}()

type calNode struct {
	next *calNode
	v    uint32
}

var calSink atomic.Uint32

// calibrate times one run of the kernel: integer arithmetic, a cache-
// missing chase and a burst of small allocations, in about equal parts.
func calibrate() float64 {
	t0 := time.Now()
	h, j := uint32(2166136261), uint32(0)
	for i := 0; i < 40000; i++ {
		j = calChain[j]
		h = (h ^ j) * 16777619
	}
	for i := uint32(0); i < 150000; i++ {
		h = (h^i)*16777619 + h>>7
	}
	var list *calNode
	for i := uint32(0); i < 3000; i++ {
		list = &calNode{next: list, v: h ^ i}
		h += list.v
	}
	calSink.Add(h)
	return ms(time.Since(t0))
}

// sampleSpeed is how much slower than the reference the machine is right
// now. The kernel runs alone (the speed one busy goroutine sees, as a
// serve-unique request does) and on nproc goroutines at once (the speed
// the two-worker loads see); each is the median of three tries, and the
// sample is their geometric mean, which tracked every workload better
// than either alone.
func sampleSpeed() float64 {
	alone := median([]float64{calibrate(), calibrate(), calibrate()})
	together := make([]float64, 3)
	for r := range together {
		times := make([]float64, nproc)
		var wg sync.WaitGroup
		for g := range times {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				times[g] = calibrate()
			}(g)
		}
		wg.Wait()
		for _, t := range times {
			together[r] += t / nproc
		}
	}
	return math.Sqrt(alone*median(together)) / calibRefMS
}
