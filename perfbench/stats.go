package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durQuantile is quantile over durations, in the durations' nanoseconds.
func durQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapMB forces a collection and returns the bytes still reachable, in
// MB (10^6 bytes).
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// runtimeDelta is the Go runtime's cost over one phase: collections,
// stop-the-world pause time and bytes allocated.
type runtimeDelta struct {
	gcCycles uint32
	pause    time.Duration
	allocMB  float64
}

type runtimeMark runtime.MemStats

func markRuntime() *runtimeMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*runtimeMark)(&m)
}

func (a *runtimeMark) since() runtimeDelta {
	var b runtime.MemStats
	runtime.ReadMemStats(&b)
	return runtimeDelta{
		gcCycles: b.NumGC - a.NumGC,
		pause:    time.Duration(b.PauseTotalNs - a.PauseTotalNs),
		allocMB:  float64(b.TotalAlloc-a.TotalAlloc) / 1e6,
	}
}
