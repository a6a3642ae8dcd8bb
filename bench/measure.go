package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ddpolice/internal/stats"
)

// sample is what one timed call cost.
type sample struct {
	wall       float64 // seconds
	cpu        float64 // user+sys seconds of the whole process
	allocBytes float64
	allocs     float64
	peakRSSMB  float64 // resident-set high-water mark reached during the call
}

// cpuSeconds returns the process's user+sys CPU time so far. Unlike
// wall time it does not grow while the process waits for a core; a
// co-tenant's pressure on shared caches and memory inflates both.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident-set high-water mark, VmHWM
// in /proc/self/status, in MiB; 0 where there is no such file.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS makes the high-water mark start again from what is
// resident now (Linux: writing 5 to clear_refs). Where that is not
// possible the mark keeps counting from the process's start, and the
// error is ignored because the figure is then merely an upper bound.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// timed measures one call. Before it, and not timed, the heap is
// collected and handed back to the system and the high-water mark is
// reset: every repetition starts like a fresh process, pays for its own
// page faults and not for its predecessor's garbage, and has a peak
// resident set of its own.
func timed(fn func() error) (sample, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	return sample{
		wall:       wall,
		cpu:        cpu,
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		allocs:     float64(m1.Mallocs - m0.Mallocs),
		peakRSSMB:  peakRSSMB(),
	}, err
}

// series is the repetitions of one metric within a run; an empty one
// reads 0 everywhere.
type series []float64

// quantile interpolates linearly between order statistics.
func (s series) quantile(q float64) float64 {
	smp := stats.NewSample(len(s))
	for _, x := range s {
		smp.Add(x)
	}
	return smp.Quantile(q)
}

func (s series) median() float64 { return s.quantile(0.5) }
func (s series) min() float64    { return s.quantile(0) }
func (s series) max() float64    { return s.quantile(1) }
