package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is noise, so the benchmark
// reports the highest percentile the sample count supports instead.
const minBeyond = 10

// percentileLadder lists the percentiles a tail figure may fall back to,
// highest first. A fixed ladder keeps a metric's meaning stable across
// runs whose sample counts differ slightly.
var percentileLadder = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// tailPercentile returns the highest ladder percentile, at most max, that
// has at least minBeyond of n samples beyond it. With too few samples for
// any tail it returns 50 (the median); ok is false then.
func tailPercentile(n int, max float64) (p float64, ok bool) {
	for _, p := range percentileLadder {
		if p <= max && n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 50, false
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// small slack keeps p*n/100 from rounding up past an exact integer.
func rank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// percentile is the nearest-rank percentile p (0-100) of xs, which need
// not be sorted. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean is the geometric mean of positive values (0 if any is not).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// latencies collects per-operation host times.
type latencies []time.Duration

func (l latencies) ms() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// summary is a latency sample reduced to its median and tail, with the
// percentile and sample count the tail rests on.
type summary struct {
	N         int
	P50       float64
	TailP     float64
	Tail      float64
	TailValid bool
}

// summarize reduces ms samples to the median plus the highest percentile,
// at most maxP, with at least minBeyond samples beyond it.
func summarize(ms []float64, maxP float64) summary {
	p, ok := tailPercentile(len(ms), maxP)
	return summary{N: len(ms), P50: median(ms), TailP: p, Tail: percentile(ms, p), TailValid: ok}
}

// note states the sample base of a summary, for the report.
func (s summary) note() string {
	if !s.TailValid {
		return fmt.Sprintf("%d samples: too few for a tail, median reported", s.N)
	}
	return fmt.Sprintf("p%g of %d samples", s.TailP, s.N)
}
