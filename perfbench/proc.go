package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// cpuTime returns this process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns this process's peak resident set size in MB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rusageOf extracts CPU time and peak RSS from a finished child.
func rusageOf(ru *syscall.Rusage) (cpu time.Duration, rssMB float64) {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// runtimeStats is the Go runtime's GC and allocation accounting.
type runtimeStats struct {
	GCCycles  float64 `json:"gc_cycles"`
	GCPauseMS float64 `json:"gc_pause_ms"`
	AllocMB   float64 `json:"alloc_mb"`
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.GCCycles - b.GCCycles, a.GCPauseMS - b.GCPauseMS, a.AllocMB - b.AllocMB}
}

// readRuntime samples runtime/metrics. The pause total is estimated from
// the pause histogram at bucket midpoints.
func readRuntime() runtimeStats {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/pauses:seconds"},
	}
	metrics.Read(samples)
	var st runtimeStats
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		st.GCCycles = float64(v.Uint64())
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		st.AllocMB = float64(v.Uint64()) / (1 << 20)
	}
	if v := samples[2].Value; v.Kind() == metrics.KindFloat64Histogram {
		h := v.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if c == 0 || hi-lo > 1e6 {
				continue
			}
			st.GCPauseMS += float64(c) * (lo + hi) / 2 * 1e3
		}
	}
	return st
}
