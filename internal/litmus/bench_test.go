package litmus

import (
	"testing"
)

// benchExplore runs p under the given engine configuration.
func benchExplore(b *testing.B, p Program, workers int, memoize bool) {
	b.Helper()
	var states int
	for i := 0; i < b.N; i++ {
		x := NewExplorer(p)
		x.Workers, x.Memoize = workers, memoize
		r, err := x.Run()
		if err != nil {
			b.Fatal(err)
		}
		states = r.States
	}
	b.ReportMetric(float64(states), "states/op")
}

// BenchmarkLitmusExploreSequential is the pre-memoization baseline: plain
// tree enumeration of a mid-size annotated program.
func BenchmarkLitmusExploreSequential(b *testing.B) {
	benchExplore(b, WRCDRF(), 1, false)
}

// BenchmarkLitmusExploreMemoized measures canonical-state memoization on
// the same program, single-threaded.
func BenchmarkLitmusExploreMemoized(b *testing.B) {
	benchExplore(b, WRCDRF(), 1, true)
}

// BenchmarkLitmusExploreParallel measures the full default engine
// (memoization + worker pool). Compare against
// BenchmarkLitmusExploreSequential for the engine speedup.
func BenchmarkLitmusExploreParallel(b *testing.B) {
	benchExplore(b, WRCDRF(), 0, true)
}

// BenchmarkLitmusExploreStress runs the state-heavy stress program, which
// only the memoizing modes can finish inside the default budget.
func BenchmarkLitmusExploreStress(b *testing.B) {
	benchExplore(b, StressIndependent(), 0, true)
}

// BenchmarkLitmusCatalogDefault explores the entire catalog with the
// default engine — the workload internal/conform and internal/exp impose
// on the explorer.
func BenchmarkLitmusCatalogDefault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range Catalog() {
			if _, err := Explore(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// midState prepares p and walks it to half its instruction count,
// stepping the threads round-robin (each turn takes the first enabled
// move of the next thread that has one), so every thread is part-way
// through and the execution holds cross-thread edges.
func midState(tb testing.TB, p Program, symmetry bool) (*engine, *state) {
	tb.Helper()
	x := NewExplorer(p)
	x.Symmetry = symmetry
	s, err := x.prepare()
	if err != nil {
		tb.Fatal(err)
	}
	depth := 0
	for _, th := range x.prog.Threads {
		depth += len(th)
	}
	for turn := 0; turn < depth/2; turn++ {
		ms, err := x.moves(s)
		if err != nil || len(ms) == 0 {
			tb.Fatalf("%s: no move at depth %d (%v)", p.Name, turn, err)
		}
		m := ms[0]
		for _, c := range ms {
			if c.t >= turn%len(x.prog.Threads) {
				m = c
				break
			}
		}
		x.do(s, m)
	}
	return &engine{x: x, memoize: true}, s
}

// BenchmarkStateFingerprint measures one memo-key query at a mid-depth
// state: the identity key, and the orbit-canonical key (the minimum over
// every automorphism frame) that symmetry reduction uses. stress-independent
// has no automorphism, so its symmetric key is one frame; iriw-sym3 has six.
func BenchmarkStateFingerprint(b *testing.B) {
	for _, p := range []Program{StressIndependent(), IRIWSym3()} {
		g, s := midState(b, p, false)
		b.Run(p.Name+"/identity", func(b *testing.B) {
			for b.Loop() {
				g.x.fingerprint(s, 0)
			}
		})
		g, s = midState(b, p, true)
		b.Run(p.Name+"/symmetry", func(b *testing.B) {
			for b.Loop() {
				g.canonicalFP(s)
			}
		})
	}
}
