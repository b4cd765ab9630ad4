package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		max  float64
		want float64
		ok   bool
	}{
		{10000, 99, 99, true},    // p99.9 has exactly 10 beyond, but the cap is 99
		{10000, 100, 99.9, true}, // uncapped, p99.9 has 10 beyond
		{1000, 99, 99, true},     // exactly 10 beyond p99
		{999, 99, 98, true},      // 9.99 beyond p99 is too few
		{200, 99, 95, true},
		{100, 99, 90, true},
		{50, 99, 80, true},
		{20, 99, 50, true},
		{19, 99, 50, false}, // no percentile has 10 samples beyond it
		{0, 99, 50, false},
	} {
		got, ok := tailPercentile(c.n, c.max)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d, %g) = %g, %v; want %g, %v", c.n, c.max, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted: 100 .. 1
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestSummarizeStatesItsBase(t *testing.T) {
	ms := make([]float64, 250)
	for i := range ms {
		ms[i] = float64(i)
	}
	s := summarize(ms, 99)
	if s.TailP != 95 || s.Tail != percentile(ms, 95) || !s.TailValid {
		t.Fatalf("summary %+v: want the p95 tail of 250 samples", s)
	}
	if got, want := s.note(), "p95 of 250 samples"; got != want {
		t.Errorf("note = %q, want %q", got, want)
	}
	if s := summarize(ms[:5], 99); s.TailValid || s.Tail != s.P50 {
		t.Errorf("5 samples: %+v, want the median in place of a tail", s)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %g, want 10", got)
	}
	if got := geomean([]float64{5, 0}); got != 0 {
		t.Errorf("geomean with a zero = %g, want 0", got)
	}
}
