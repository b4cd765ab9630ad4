// Package perf is the continuous-benchmarking subsystem: a structured
// benchmark runner that executes a declarative suite over the repo's
// layers — simulated workloads (apps × backends × tiles × topology),
// litmus exploration (tree vs memoized vs parallel engines) and seeded
// differential fuzz campaigns — and serializes the measurements to a
// versioned JSON schema that Compare can diff against a committed
// baseline.
//
// Every entry reports two families of metrics:
//
//   - exact metrics (sim-cycles, checksums, flit-hops, explored states,
//     outcome counts, campaign tallies): deterministic properties of the
//     seeded computation, identical on every machine and worker count.
//     Run asserts they agree across repetitions; Compare matches them
//     exactly, so any drift — faster or slower — is a semantic change
//     that must be acknowledged by refreshing the baseline;
//   - host metrics (ns/op, allocs/op, bytes/op): properties of the Go
//     implementation, measured over Reps repetitions and summarized as
//     min/median/stddev. Compare classifies them with a noise-aware
//     relative threshold (min is the comparable value — it is the least
//     noisy estimator of the true cost).
//
// The package is exported through pmc.BenchRun / pmc.BenchSpec /
// pmc.BenchCompare and driven by cmd/pmcbench.
package perf

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"pmc/internal/fuzz"
	"pmc/internal/litmus"
	"pmc/internal/noc"
	"pmc/internal/rt"
	"pmc/internal/sim"
	"pmc/internal/soc"
	"pmc/internal/workloads"
)

// Schema versions the BENCH.json layout. Compare refuses to diff reports
// with different schemas.
const Schema = 1

// SimBench measures one simulated workload run: app (workloads.ByName
// names) on backend with the given tile count and NoC topology.
type SimBench struct {
	App     string `json:"app"`
	Backend string `json:"backend"`
	Tiles   int    `json:"tiles"`
	Topo    string `json:"topo,omitempty"`  // "" = ring
	Small   bool   `json:"small,omitempty"` // CI-sized app configuration
}

// LitmusBench measures one exhaustive litmus exploration under a chosen
// engine configuration.
type LitmusBench struct {
	Prog string `json:"prog"`
	// Workers is the exploration goroutine count (0 = GOMAXPROCS,
	// 1 = sequential).
	Workers int `json:"workers"`
	// Memoize enables canonical-state deduplication. Workers=1 with
	// Memoize=false is the reference tree engine.
	Memoize bool `json:"memoize"`
	// MaxStates overrides the state budget (0 = explorer default).
	MaxStates int `json:"max_states,omitempty"`
	// Symmetry collapses automorphism-related states (requires Memoize);
	// outcomes and paths are unchanged, states shrinks by the orbit
	// factor.
	Symmetry bool `json:"symmetry,omitempty"`
}

// FuzzBench measures the throughput of a seeded differential fuzzing
// campaign. The campaign summary (unique programs, checks, violations) is
// worker-count-independent, so its tallies are exact metrics.
type FuzzBench struct {
	Seed     int64    `json:"seed"`
	N        int      `json:"n"`
	Mode     string   `json:"mode"`
	Backends []string `json:"backends,omitempty"` // nil = the paper's four
	Runs     int      `json:"runs,omitempty"`     // perturbed runs per pair
}

// Entry is one benchmark of a suite: exactly one of Sim, Litmus, Fuzz is
// set.
type Entry struct {
	Name   string       `json:"name"`
	Sim    *SimBench    `json:"sim,omitempty"`
	Litmus *LitmusBench `json:"litmus,omitempty"`
	Fuzz   *FuzzBench   `json:"fuzz,omitempty"`
}

// Spec declares a benchmark run.
type Spec struct {
	// Suite names the entry set (recorded in the report).
	Suite string
	// Reps is the number of timed repetitions per entry (0 = 5). Exact
	// metrics must agree across repetitions; host metrics are
	// aggregated over them.
	Reps int
	// Entries lists the benchmarks to run.
	Entries []Entry
	// Progress, if non-nil, receives one line per completed entry.
	Progress io.Writer
	// Lookup, if non-nil, is consulted before measuring an entry: a hit
	// serves the prior measurement (marked Cached) and skips the entry's
	// simulation entirely. The hit's exact metrics are guaranteed
	// identical to what a fresh run would produce — that is the
	// determinism property the whole cache rests on — while its host
	// timings are from the run that populated the cache. internal/pmcd
	// provides a content-addressed implementation (BenchCached).
	Lookup func(Entry) (*Measurement, bool)
	// Store, if non-nil, receives every freshly measured entry (cache
	// population; never called for Lookup hits).
	Store func(Entry, *Measurement)
}

// Metric is one named measurement of an entry. For exact metrics Value is
// the deterministic quantity; for host metrics Value is the minimum over
// repetitions, with Median and Stddev recording the spread.
type Metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Median float64 `json:"median,omitempty"`
	Stddev float64 `json:"stddev,omitempty"`
	Exact  bool    `json:"exact,omitempty"`
}

// Measurement is the measured result of one entry.
type Measurement struct {
	Name    string   `json:"name"`
	Reps    int      `json:"reps"`
	Metrics []Metric `json:"metrics"`
	// Cached marks a measurement served from a result cache (Spec.Lookup)
	// instead of fresh simulation. It is informational — Compare matches
	// metrics by name and value regardless — but keeps cache effectiveness
	// visible in the serialized report.
	Cached bool `json:"cached,omitempty"`
	// PerCPU marks an entry whose work is split over GOMAXPROCS goroutines
	// (a litmus entry with Workers 0). Its allocation count grows with the
	// host's CPU count, so Compare holds its allocs/op to the general
	// threshold instead of AllocsThreshold.
	PerCPU bool `json:"per_cpu,omitempty"`
}

// Metric returns the named metric, or nil.
func (m *Measurement) Metric(name string) *Metric {
	for i := range m.Metrics {
		if m.Metrics[i].Name == name {
			return &m.Metrics[i]
		}
	}
	return nil
}

// Report is a completed benchmark run — the BENCH.json payload.
type Report struct {
	Schema    int           `json:"schema"`
	Suite     string        `json:"suite"`
	Reps      int           `json:"reps"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	NumCPU    int           `json:"num_cpu"`
	Entries   []Measurement `json:"entries"`
}

// Entry returns the named measurement, or nil.
func (r *Report) Entry(name string) *Measurement {
	for i := range r.Entries {
		if r.Entries[i].Name == name {
			return &r.Entries[i]
		}
	}
	return nil
}

// validate rejects malformed specs before any benchmark runs.
func (s *Spec) validate() error {
	if len(s.Entries) == 0 {
		return fmt.Errorf("perf: empty suite")
	}
	seen := make(map[string]bool, len(s.Entries))
	for i := range s.Entries {
		e := &s.Entries[i]
		if e.Name == "" {
			return fmt.Errorf("perf: entry %d has no name", i)
		}
		if seen[e.Name] {
			return fmt.Errorf("perf: duplicate entry name %q", e.Name)
		}
		seen[e.Name] = true
		n := 0
		for _, set := range []bool{e.Sim != nil, e.Litmus != nil, e.Fuzz != nil} {
			if set {
				n++
			}
		}
		if n != 1 {
			return fmt.Errorf("perf: entry %q must set exactly one of sim/litmus/fuzz", e.Name)
		}
	}
	return nil
}

// Run executes every entry of the suite Reps times and returns the
// aggregated report. Exact metrics must be identical across repetitions;
// a mismatch is a determinism bug and fails the run.
func Run(spec Spec) (*Report, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	reps := spec.Reps
	if reps <= 0 {
		reps = 5
	}
	rep := &Report{
		Schema:    Schema,
		Suite:     spec.Suite,
		Reps:      reps,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for i := range spec.Entries {
		e := spec.Entries[i]
		if spec.Lookup != nil {
			if m, ok := spec.Lookup(e); ok {
				hit := *m
				hit.Cached = true
				rep.Entries = append(rep.Entries, hit)
				if spec.Progress != nil {
					fmt.Fprintf(spec.Progress, "%-40s %12s  (cached)\n", hit.Name, "-")
				}
				continue
			}
		}
		m, err := measure(e, reps)
		if err != nil {
			return nil, err
		}
		if spec.Store != nil {
			spec.Store(e, m)
		}
		rep.Entries = append(rep.Entries, *m)
		if spec.Progress != nil {
			ns := m.Metric("ns/op")
			fmt.Fprintf(spec.Progress, "%-40s %12.0f ns/op  (%d reps)\n", m.Name, ns.Value, reps)
		}
	}
	return rep, nil
}

// measure times one entry reps times and folds the repetitions into a
// Measurement.
func measure(e Entry, reps int) (*Measurement, error) {
	var (
		nsSamples     []float64
		allocsSamples []float64
		bytesSamples  []float64
		exact         []Metric
	)
	var ms0, ms1 runtime.MemStats
	for r := 0; r < reps; r++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		ex, err := RunEntry(e)
		dt := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, fmt.Errorf("perf: entry %s: %w", e.Name, err)
		}
		nsSamples = append(nsSamples, float64(dt.Nanoseconds()))
		allocsSamples = append(allocsSamples, float64(ms1.Mallocs-ms0.Mallocs))
		bytesSamples = append(bytesSamples, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		if r == 0 {
			exact = ex
		} else if err := sameExact(exact, ex); err != nil {
			return nil, fmt.Errorf("perf: entry %s is non-deterministic across repetitions: %w", e.Name, err)
		}
	}
	m := &Measurement{Name: e.Name, Reps: reps, PerCPU: e.Litmus != nil && e.Litmus.Workers == 0}
	m.Metrics = append(m.Metrics, hostMetric("ns/op", nsSamples))
	m.Metrics = append(m.Metrics, hostMetric("allocs/op", allocsSamples))
	m.Metrics = append(m.Metrics, hostMetric("bytes/op", bytesSamples))
	if e.Fuzz != nil && e.Fuzz.N > 0 {
		perProg := make([]float64, len(nsSamples))
		for i, ns := range nsSamples {
			perProg[i] = ns / float64(e.Fuzz.N)
		}
		m.Metrics = append(m.Metrics, hostMetric("ns/program", perProg))
	}
	m.Metrics = append(m.Metrics, exact...)
	return m, nil
}

// sameExact verifies two exact-metric lists are identical.
func sameExact(a, b []Metric) error {
	if len(a) != len(b) {
		return fmt.Errorf("metric count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Value != b[i].Value {
			return fmt.Errorf("%s: %v vs %v", a[i].Name, a[i].Value, b[i].Value)
		}
	}
	return nil
}

// hostMetric folds repetition samples into a noisy metric: Value is the
// minimum (the least noisy cost estimator), Median and Stddev record the
// spread.
func hostMetric(name string, samples []float64) Metric {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	m := Metric{Name: name, Value: sorted[0], Median: median(sorted)}
	if len(sorted) > 1 {
		mean := 0.0
		for _, v := range sorted {
			mean += v
		}
		mean /= float64(len(sorted))
		ss := 0.0
		for _, v := range sorted {
			ss += (v - mean) * (v - mean)
		}
		m.Stddev = math.Sqrt(ss / float64(len(sorted)-1))
	}
	return m
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// RunEntry executes one entry once and returns its exact metrics. It is
// the single execution path shared by Run and the Go benchmarks in
// bench_test.go (which wrap it in testing.B loops), so the magnitudes the
// two report can never diverge.
func RunEntry(e Entry) ([]Metric, error) {
	switch {
	case e.Sim != nil:
		return runSim(e.Sim)
	case e.Litmus != nil:
		return runLitmus(e.Litmus)
	case e.Fuzz != nil:
		return runFuzz(e.Fuzz)
	}
	return nil, fmt.Errorf("entry %q sets none of sim/litmus/fuzz", e.Name)
}

func runSim(sb *SimBench) ([]Metric, error) {
	app, ok := workloads.Scaled(sb.App, sb.Small)
	if !ok {
		return nil, fmt.Errorf("unknown app %q", sb.App)
	}
	cfg := soc.DefaultConfig()
	if sb.Tiles > 0 {
		cfg.Tiles = sb.Tiles
	}
	if sb.Topo != "" {
		topo, err := noc.ParseTopology(sb.Topo)
		if err != nil {
			return nil, err
		}
		cfg.NoC.Topology = topo
	}
	// Large entries outgrow the default memory map (its per-tile private
	// heaps stop at 48 tiles); the guard leaves every ≤32-tile entry — and
	// so every recorded baseline metric — untouched.
	if need := rt.MinSDRAMBytes(cfg.Tiles); need > cfg.SDRAMBytes {
		cfg.SDRAMBytes = need
	}
	res, err := workloads.Run(app, cfg, sb.Backend)
	if err != nil {
		return nil, err
	}
	ms := []Metric{
		{Name: "sim-cycles", Value: float64(res.Cycles), Exact: true},
		{Name: "flit-hops", Value: float64(res.FlitHops), Exact: true},
		{Name: "checksum", Value: float64(res.Checksum), Exact: true},
	}
	// Service workloads additionally gate on the exact tail-latency
	// metrics: any p50/p99 drift — a scheduling or protocol change
	// reaching request timing — fails the bench gate just like a
	// sim-cycles drift.
	if res.Service != nil {
		ms = append(ms,
			Metric{Name: "requests", Value: float64(res.Service.Completed), Exact: true},
			Metric{Name: "p50-latency", Value: float64(res.Service.P50()), Exact: true},
			Metric{Name: "p99-latency", Value: float64(res.Service.P99()), Exact: true},
		)
	}
	return ms, nil
}

func runLitmus(lb *LitmusBench) ([]Metric, error) {
	prog, ok := litmus.ByName(lb.Prog)
	if !ok {
		return nil, fmt.Errorf("unknown litmus program %q", lb.Prog)
	}
	x := litmus.NewExplorer(prog)
	x.Workers = lb.Workers
	x.Memoize = lb.Memoize
	x.Symmetry = lb.Symmetry
	if lb.MaxStates > 0 {
		x.MaxStates = lb.MaxStates
	}
	res, err := x.Run()
	if err != nil {
		return nil, err
	}
	paths := 0
	for _, n := range res.Outcomes {
		paths += n
	}
	return []Metric{
		{Name: "states", Value: float64(res.States), Exact: true},
		{Name: "outcomes", Value: float64(len(res.Outcomes)), Exact: true},
		{Name: "paths", Value: float64(paths), Exact: true},
		{Name: "stuck", Value: float64(res.Stuck), Exact: true},
	}, nil
}

func runFuzz(fb *FuzzBench) ([]Metric, error) {
	mode, err := fuzz.ParseMode(fb.Mode)
	if err != nil {
		return nil, err
	}
	sum, err := fuzz.Run(fuzz.Config{
		Seed:     fb.Seed,
		N:        fb.N,
		Gen:      fuzz.GenConfig{Mode: mode},
		Backends: fb.Backends,
		Runs:     fb.Runs,
	})
	if err != nil {
		return nil, err
	}
	return []Metric{
		{Name: "unique-programs", Value: float64(sum.Unique), Exact: true},
		{Name: "checked-pairs", Value: float64(sum.Checked), Exact: true},
		{Name: "violations", Value: float64(len(sum.Violations)), Exact: true},
	}, nil
}

// SimCycles is a convenience for the bench_test bridge: the sim-cycles
// exact metric of a measurement list (0 if absent — every real run has a
// positive makespan).
func SimCycles(metrics []Metric) sim.Time {
	for _, m := range metrics {
		if m.Name == "sim-cycles" {
			return sim.Time(m.Value)
		}
	}
	return 0
}
