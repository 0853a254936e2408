package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtNames are the runtime/metrics read around each timed region.
var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
	"/sync/mutex/wait/total:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func scalar(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// runtimeDelta turns two readings into the rt.* per-layer metrics;
// tuples is the input tuple count processed between them.
func runtimeDelta(a, b []metrics.Sample, tuples int64, into map[string]float64) {
	d := func(i int) float64 { return scalar(b[i].Value) - scalar(a[i].Value) }
	n := float64(tuples)
	into["rt.allocs_per_tuple"] = d(0) / n
	into["rt.alloc_bytes_per_tuple"] = d(1) / n
	into["rt.gc_cycles"] = d(2)
	if total := d(4); total > 0 {
		into["rt.gc_cpu_share"] = d(3) / total
	} else {
		into["rt.gc_cpu_share"] = 0
	}
	into["rt.sched_wait_p99_us"] = histDeltaQuantile(a[5].Value.Float64Histogram(), b[5].Value.Float64Histogram(), 0.99) * 1e6
	into["rt.mutex_wait_ms"] = d(6) * 1e3
}

// histDeltaQuantile is the q-quantile of the observations a cumulative
// runtime histogram gained between readings a and b, reported as the
// upper edge of the bucket that holds it.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen > want {
			return b.Buckets[i+1]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// heapWatch records the largest live heap the collector measured while
// it was armed. A finalizer on a throwaway object runs once per GC
// cycle and re-arms itself, so there is no polling.
type heapWatch struct {
	stopped atomic.Bool
	peak    atomic.Uint64
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// watchHeap starts a watch whose peak begins at the live heap of the
// last completed cycle.
func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.peak.Store(liveHeap())
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	// The sentinel holds a pointer so the tiny allocator, whose blocks
	// may never be finalized, does not take it.
	sentinel := &struct{ w *heapWatch }{w}
	runtime.SetFinalizer(sentinel, func(*struct{ w *heapWatch }) {
		if w.stopped.Load() {
			return
		}
		w.raise(liveHeap())
		w.arm()
	})
}

func (w *heapWatch) raise(v uint64) {
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop disarms the watch and returns the peak in MB.
func (w *heapWatch) stop() float64 {
	w.raise(liveHeap())
	w.stopped.Store(true)
	return float64(w.peak.Load()) / (1 << 20)
}
