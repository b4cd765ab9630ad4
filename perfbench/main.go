// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks the workload's outputs, and prints
// every metric by name with its unit; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
//
//	go run . --workload verify --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it measures the end-to-end metrics of the workload.
// With --trace 1 it makes the traced run instead: every workload is run
// once untraced and once with spans recorded around each call into a
// layer, the two runs' exact outputs must agree, and the per-layer
// metrics come from the spans, the simulated counters and the layer
// probes. README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one named input set of the benchmark.
type workload struct {
	name        string
	defaultSeed int64
	// tailP is the percentile job_p99_ms reports: the highest one a run
	// of the workload's usual length has ten samples beyond, fixed so the
	// metric means the same in every run.
	tailP float64
	// run measures the end-to-end metrics for the given time.
	run func(env *env, seed int64, seconds time.Duration, rep *report) ([]round, latencies, error)
	// pass runs a fixed-size share of the workload once, untraced when
	// tr is nil, and returns its exact outputs and wall time. With a
	// tracer it also reports the layers the workload exercises.
	pass func(env *env, seed int64, tr *tracer, rep *report) (outputs any, wall time.Duration, err error)
}

var workloadList = []*workload{
	{name: "verify", defaultSeed: 1, tailP: 90, run: runVerify, pass: passVerify},
	{name: "simulate", defaultSeed: 0, tailP: 98, run: runSimulate, pass: passSimulate},
	{name: "serve", defaultSeed: 1, tailP: 99, run: runServe, pass: passServe},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// env is where the benchmark may write: its own directory inside the
// checkout it runs from.
type env struct {
	dir string
}

// tempDir makes a fresh directory under the benchmark's work directory.
func (e *env) tempDir(pattern string) (string, error) {
	root := filepath.Join(e.dir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, pattern)
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// report collects a run's metrics, its operation counts and every output
// check that failed.
type report struct {
	metrics   []metric
	attempted int64
	failed    int64
	problems  []string
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, Note: note})
}

// problem records a failed output check.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ops counts attempted and failed operations toward error_rate.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// errorRate is failed over attempted operations (0 when nothing ran).
func errorRate(attempted, failed int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 && r.attempted > 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report and then the JSON result line,
// restricted to (and required to contain) the named metrics.
func (r *report) print(w io.Writer, names []string) error {
	byName := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		byName[m.Name] = m
	}
	res := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		res.Metrics[n] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	sorted := append([]metric(nil), r.metrics...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, m := range sorted {
		line := fmt.Sprintf("  %-34s %16.6g %-8s", m.Name, m.Value, m.Unit)
		if m.Note != "" {
			line += "  " + m.Note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "  %-34s %16.6g %-8s  %d failed of %d attempted operations\n",
		"error_rate", errorRate(r.attempted, r.failed), "ratio", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: verify, simulate or serve")
	seed := fs.Int64("seed", -1, "input seed (-1: the workload's default seed)")
	seconds := fs.Int("seconds", 25, "how long the end-to-end run measures")
	trace := fs.Int("trace", 0, "1 makes the traced run that reports the per-layer metrics")
	dir := fs.String("dir", ".bench_build", "work directory for temporary stores and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (verify, simulate, serve)", *name)
	}
	if *seed < 0 {
		*seed = w.defaultSeed
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	e := &env{dir: *dir}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	rep := &report{}
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %d s, trace %d\n", w.name, *seed, *seconds, *trace)
	var names []string
	switch *trace {
	case 0:
		rounds, jobs, err := w.run(e, *seed, time.Duration(*seconds)*time.Second, rep)
		if err != nil {
			return err
		}
		addRoundMetrics(rep, rounds, jobs, w.tailP)
		names = endToEndMetrics
	case 1:
		if err := tracedRun(e, w, *seed, rep, stdout); err != nil {
			return err
		}
		names = perLayerMetrics
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	return rep.print(stdout, names)
}

// tracedRun runs every workload's fixed-size pass twice, untraced and
// traced, requires their exact outputs to agree, and reports the layers.
// Runtime counters, trace coverage and tracing overhead belong to the
// named workload; the layer metrics of the other workloads come from
// their own passes, so every traced run reports every layer.
func tracedRun(e *env, named *workload, seed int64, rep *report, stdout io.Writer) error {
	for _, w := range workloadList {
		before := readRuntime()
		want, untracedWall, err := w.pass(e, seed, nil, &report{})
		if err != nil {
			return fmt.Errorf("%s untraced pass: %w", w.name, err)
		}
		after := readRuntime()
		tr := newTracer()
		start := time.Since(tr.epoch)
		got, tracedWall, err := w.pass(e, seed, tr, rep)
		if err != nil {
			return fmt.Errorf("%s traced pass: %w", w.name, err)
		}
		end := time.Since(tr.epoch)
		if diff := compareOutputs(want, got); diff != "" {
			return fmt.Errorf("%s: the traced run does not reproduce the untraced outputs: %s", w.name, diff)
		}
		if err := tr.write(filepath.Join(e.dir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))); err != nil {
			return err
		}
		if w == named {
			runtimeMetrics(rep, before, after)
			spans := tr.snapshot()
			rep.add("trace.coverage", coverage(spans, start, end), "ratio",
				fmt.Sprintf("%d spans over %.3f s", len(spans), (end-start).Seconds()))
			rep.add("trace.overhead_share", tracedWall.Seconds()/untracedWall.Seconds()-1, "ratio",
				fmt.Sprintf("traced %.3f s vs untraced %.3f s", tracedWall.Seconds(), untracedWall.Seconds()))
			printSelfTimes(stdout, spans)
		}
	}
	return runProbes(e, rep)
}

// compareOutputs describes the first difference between two passes'
// exact outputs ("" when they agree).
func compareOutputs(want, got any) string {
	a, err1 := json.Marshal(want)
	b, err2 := json.Marshal(got)
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("unencodable outputs: %v %v", err1, err2)
	}
	if string(a) == string(b) {
		return ""
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-80)
	return fmt.Sprintf("%s… vs %s…", a[lo:min(len(a), i+40)], b[lo:min(len(b), i+40)])
}

// printSelfTimes lists the span names by self time, the per-layer
// attribution of the traced pass.
func printSelfTimes(w io.Writer, spans []Span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "  self time by span:")
	for _, n := range names {
		fmt.Fprintf(w, "    %-28s %10.3f s\n", n, self[n].Seconds())
	}
}

// setupBatch is how many set-ups a run makes before each round.
const setupBatch = 21

// setups times a workload's set-up: the part of fn between sw.start and
// sw.stop. A run sets up before every round, so the samples spread over
// the run and neither a slow first set-up (page faults, lazy
// initialization) nor a slow moment of the host sets the median.
type setups struct {
	what    string
	fn      func(sw *stopwatch) error
	samples []float64
}

func (s *setups) batch() error {
	for i := 0; i < setupBatch; i++ {
		var sw stopwatch
		if err := s.fn(&sw); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.samples = append(s.samples, sw.d.Seconds())
	}
	return nil
}

// runRounds repeats rounds until seconds have passed, finishing the round
// under way, with a batch of set-ups before each, and reports setup_s.
func runRounds(rep *report, seconds time.Duration, set *setups, body func(k int, r *round) error) ([]round, error) {
	var rounds []round
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < seconds; k++ {
		if err := set.batch(); err != nil {
			return nil, err
		}
		r, err := measureRound(func(r *round) error { return body(k, r) })
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	rep.add("setup_s", median(set.samples), "s", fmt.Sprintf("median of %d set-ups: %s", len(set.samples), set.what))
	return rounds, nil
}

// addRoundMetrics reports the end-to-end metrics every workload shares,
// from its rounds (one full pass over its input set each), the jobs
// inside them and the distinct programs they computed. The job tail is
// percentile tailP, or lower if the run has too few jobs for it.
func addRoundMetrics(rep *report, rounds []round, jobs latencies, tailP float64) {
	var walls, jobRates, progRates, rss []float64
	for _, r := range rounds {
		s := r.wall.Seconds()
		walls = append(walls, s)
		jobRates = append(jobRates, float64(r.jobs)/s)
		progRates = append(progRates, float64(r.programs)/s)
		rss = append(rss, r.peakRSSMB)
	}
	base := fmt.Sprintf("median of %d rounds", len(rounds))
	rep.add("grid_s", median(walls), "s", base)
	rep.add("jobs_per_s", median(jobRates), "1/s", base)
	rep.add("programs_per_s", median(progRates), "1/s", base)
	rep.add("peak_rss_mb", median(rss), "MiB", base+" of the round's VmHWM")
	s := summarize(jobs.ms(), tailP)
	rep.add("job_p50_ms", s.P50, "ms", fmt.Sprintf("median of %d jobs", s.N))
	rep.add("job_p99_ms", s.Tail, "ms", s.note())
}

// roundRand is the random source of round k of a run with the given seed.
// Each round draws its own order, so that a run's medians average over
// orders instead of resting on one.
func roundRand(seed int64, k int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
}

// round is one full pass over a workload's input set.
type round struct {
	wall      time.Duration
	jobs      int
	programs  int
	peakRSSMB float64
}

// measureRound runs one round with the process's peak RSS reset before
// it, and records the round's wall time and peak RSS.
func measureRound(body func(r *round) error) (round, error) {
	var r round
	if err := resetPeakRSS(); err != nil {
		return r, err
	}
	start := time.Now()
	if err := body(&r); err != nil {
		return r, err
	}
	if r.wall == 0 {
		r.wall = time.Since(start)
	}
	var err error
	r.peakRSSMB, err = peakRSSMB()
	return r, err
}
