package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of xs and how many
// values lie beyond it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// window accumulates the wall time and the bytes allocated (the runtime's
// TotalAlloc delta) of the measured calls passed to it.
type window struct {
	wall  time.Duration
	alloc uint64
}

// measure runs f and adds its wall time and allocation to w.
func (w *window) measure(f func() error) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	start := time.Now()
	err := f()
	w.wall += time.Since(start)
	runtime.ReadMemStats(&ms)
	w.alloc += ms.TotalAlloc - before
	return err
}

// liveHeapMB forces collections and returns the live heap in MB. The
// second collection frees what the first only moved to sync.Pool victim
// caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// gcCounters snapshots the collector's cycle count and total pause time.
func gcCounters() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}
