package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line")
}

// resetPeakRSS makes VmHWM start again from the current resident set, so
// that each round's peak can be read on its own.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports per workload.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// mallocs is the cumulative heap allocation count (cheap: no stop-the-world).
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeMetrics reports what the Go runtime did between two samples:
// MiB allocated, objects allocated, and GC's share of the CPU time. The
// runtime's CPU classes are estimates that it refreshes at each GC.
func runtimeMetrics(rep *report, before, after runtimeSample) {
	rep.add("go.alloc_mb", float64(after.allocBytes-before.allocBytes)/(1<<20), "MiB", "")
	rep.add("go.mallocs", float64(after.allocObjects-before.allocObjects), "count", "")
	share := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		share = (after.gcCPU - before.gcCPU) / cpu
	}
	rep.add("go.gc_cpu_share", share, "ratio", "")
}
