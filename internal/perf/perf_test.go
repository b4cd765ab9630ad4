package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSuites: every builtin suite validates and names entries uniquely.
func TestSuites(t *testing.T) {
	names := Suites()
	if len(names) == 0 {
		t.Fatal("no builtin suites")
	}
	for _, name := range names {
		spec, err := Suite(name)
		if err != nil {
			t.Fatalf("Suite(%q): %v", name, err)
		}
		if err := spec.validate(); err != nil {
			t.Errorf("suite %s: %v", name, err)
		}
	}
	if _, err := Suite("nope"); err == nil {
		t.Error("unknown suite accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (&Spec{}).validate(); err == nil {
		t.Error("empty suite accepted")
	}
	dup := Spec{Entries: []Entry{
		{Name: "a", Litmus: &LitmusBench{Prog: "sb-drf"}},
		{Name: "a", Litmus: &LitmusBench{Prog: "sb-drf"}},
	}}
	if err := dup.validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate names: got %v", err)
	}
	both := Spec{Entries: []Entry{{
		Name:   "b",
		Litmus: &LitmusBench{Prog: "sb-drf"},
		Fuzz:   &FuzzBench{Seed: 1, N: 1, Mode: "drf"},
	}}}
	if err := both.validate(); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("two kinds: got %v", err)
	}
}

// TestBenchRunDeterministic: two full runs of the ci suite produce
// identical exact metrics — sim-cycles, checksums, states, campaign
// tallies — for every entry. (Within one run, measure() already asserts
// rep-to-rep agreement; this asserts run-to-run agreement, the property
// the CI gate's exact comparison against a committed baseline relies on.)
func TestBenchRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full ci suite twice")
	}
	spec, err := Suite("ci")
	if err != nil {
		t.Fatal(err)
	}
	spec.Reps = 1
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != len(spec.Entries) || len(b.Entries) != len(spec.Entries) {
		t.Fatalf("entry counts: %d, %d, want %d", len(a.Entries), len(b.Entries), len(spec.Entries))
	}
	for i := range a.Entries {
		ea, eb := &a.Entries[i], &b.Entries[i]
		if ea.Name != eb.Name {
			t.Fatalf("entry order diverged: %s vs %s", ea.Name, eb.Name)
		}
		exacts := 0
		for _, ma := range ea.Metrics {
			if !ma.Exact {
				continue
			}
			exacts++
			mb := eb.Metric(ma.Name)
			if mb == nil {
				t.Errorf("%s: metric %s missing from second run", ea.Name, ma.Name)
				continue
			}
			if ma.Value != mb.Value {
				t.Errorf("%s: %s = %v vs %v across runs", ea.Name, ma.Name, ma.Value, mb.Value)
			}
		}
		if exacts == 0 {
			t.Errorf("%s: no exact metrics", ea.Name)
		}
	}
	// The two reports must also compare clean under the exact gate (with
	// an unbounded host-noise threshold).
	cmp, err := Compare(a, b, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Ok() {
		t.Errorf("self-comparison gated:\n%s", cmp)
	}
}

// TestServiceEntriesLatencyGated: service-workload entries must emit the
// tail-latency metrics as exact (gated), kernels must not, and both
// builtin suites must contain latency-gated entries.
func TestServiceEntriesLatencyGated(t *testing.T) {
	ms, err := RunEntry(simE("e", "server", "dsm", 8, "", true))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Metric{}
	for _, m := range ms {
		got[m.Name] = m
	}
	for _, name := range []string{"requests", "p50-latency", "p99-latency"} {
		m, ok := got[name]
		if !ok {
			t.Fatalf("service entry missing metric %s (have %v)", name, ms)
		}
		if !m.Exact || m.Value <= 0 {
			t.Errorf("metric %s: exact=%v value=%v, want gated positive", name, m.Exact, m.Value)
		}
	}
	if got["p50-latency"].Value > got["p99-latency"].Value {
		t.Errorf("p50 %v > p99 %v", got["p50-latency"].Value, got["p99-latency"].Value)
	}
	kernel, err := RunEntry(simE("k", "radiosity", "nocc", 4, "", true))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range kernel {
		if m.Name == "p50-latency" {
			t.Error("kernel entry emits latency metrics")
		}
	}
	for _, suite := range []string{"ci", "full"} {
		spec, err := Suite(suite)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range spec.Entries {
			if e.Sim != nil && (e.Sim.App == "server" || e.Sim.App == "kvstore" || e.Sim.App == "stream") {
				n++
			}
		}
		if n == 0 {
			t.Errorf("suite %s has no latency-gated service entries", suite)
		}
	}
}

// report builds a one-entry report for the Compare table test.
func report(metrics ...Metric) *Report {
	return &Report{
		Schema:  Schema,
		Suite:   "t",
		Entries: []Measurement{{Name: "e", Reps: 1, Metrics: metrics}},
	}
}

func TestCompareClassification(t *testing.T) {
	cases := []struct {
		name      string
		old, new  Metric
		threshold float64
		class     string
		gates     bool
	}{
		{"host-unchanged-within-threshold", Metric{Name: "ns/op", Value: 100}, Metric{Name: "ns/op", Value: 109}, 0.10, ClassUnchanged, false},
		{"host-improved", Metric{Name: "ns/op", Value: 100}, Metric{Name: "ns/op", Value: 50}, 0.10, ClassImproved, false},
		{"host-regressed", Metric{Name: "ns/op", Value: 100}, Metric{Name: "ns/op", Value: 150}, 0.10, ClassRegressed, true},
		{"exact-unchanged", Metric{Name: "sim-cycles", Value: 42, Exact: true}, Metric{Name: "sim-cycles", Value: 42, Exact: true}, 0.10, ClassUnchanged, false},
		{"exact-lower-gates", Metric{Name: "sim-cycles", Value: 42, Exact: true}, Metric{Name: "sim-cycles", Value: 41, Exact: true}, 0.10, ClassImproved, true},
		{"exact-higher-gates", Metric{Name: "sim-cycles", Value: 42, Exact: true}, Metric{Name: "sim-cycles", Value: 43, Exact: true}, 0.10, ClassRegressed, true},
		{"exact-tiny-drift-gates", Metric{Name: "states", Value: 1000, Exact: true}, Metric{Name: "states", Value: 1001, Exact: true}, 10, ClassRegressed, true},
		// allocs/op gates at AllocsThreshold (15%) under a looser threshold,
		// and at the given threshold when that is tighter.
		{"allocs-within-cap", Metric{Name: "allocs/op", Value: 306}, Metric{Name: "allocs/op", Value: 325}, 4, ClassUnchanged, false},
		{"allocs-past-cap", Metric{Name: "allocs/op", Value: 306}, Metric{Name: "allocs/op", Value: 360}, 4, ClassRegressed, true},
		{"allocs-improved-past-cap", Metric{Name: "allocs/op", Value: 306}, Metric{Name: "allocs/op", Value: 250}, 4, ClassImproved, false},
		{"allocs-tighter-threshold", Metric{Name: "allocs/op", Value: 100}, Metric{Name: "allocs/op", Value: 110}, 0.05, ClassRegressed, true},
		{"ns-keeps-loose-threshold", Metric{Name: "ns/op", Value: 100}, Metric{Name: "ns/op", Value: 400}, 4, ClassUnchanged, false},
		{"bytes-keeps-loose-threshold", Metric{Name: "bytes/op", Value: 100}, Metric{Name: "bytes/op", Value: 300}, 4, ClassUnchanged, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmp, err := Compare(report(tc.old), report(tc.new), tc.threshold)
			if err != nil {
				t.Fatal(err)
			}
			if len(cmp.Deltas) != 1 {
				t.Fatalf("deltas = %d, want 1", len(cmp.Deltas))
			}
			d := cmp.Deltas[0]
			if d.Class != tc.class {
				t.Errorf("class = %s, want %s", d.Class, tc.class)
			}
			if got := len(cmp.Failures()) > 0; got != tc.gates {
				t.Errorf("gates = %v, want %v", got, tc.gates)
			}
			if cmp.Ok() == tc.gates {
				t.Errorf("Ok() = %v with gates = %v", cmp.Ok(), tc.gates)
			}
		})
	}
}

// TestCompareAllocsPerCPU: a litmus entry with Workers 0 splits its work
// over GOMAXPROCS goroutines, so its allocation count follows the host's
// CPU count (stress-independent/par reads 21k allocs/op at GOMAXPROCS 1
// and 80k at 32). Run marks it PerCPU, and Compare then holds its
// allocs/op to the given threshold rather than AllocsThreshold.
func TestCompareAllocsPerCPU(t *testing.T) {
	rep, err := Run(Spec{Reps: 1, Entries: []Entry{
		lit("par", "sb-drf", 0, true),
		lit("seq", "sb-drf", 1, true),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Entry("par").PerCPU || rep.Entry("seq").PerCPU {
		t.Fatalf("PerCPU = %v (Workers 0), %v (Workers 1); want true, false",
			rep.Entry("par").PerCPU, rep.Entry("seq").PerCPU)
	}
	base := report(Metric{Name: "allocs/op", Value: 100})
	grown := report(Metric{Name: "allocs/op", Value: 300})
	for _, perCPU := range []bool{false, true} {
		base.Entries[0].PerCPU = perCPU
		cmp, err := Compare(base, grown, 4)
		if err != nil {
			t.Fatal(err)
		}
		if cmp.Ok() == !perCPU {
			t.Errorf("PerCPU %v: allocs/op 100 -> 300 under threshold 400%%: Ok() = %v\n%s", perCPU, cmp.Ok(), cmp)
		}
	}
}

func TestCompareMissingAndAdded(t *testing.T) {
	base := report(
		Metric{Name: "ns/op", Value: 100},
		Metric{Name: "sim-cycles", Value: 42, Exact: true},
	)
	cand := report(
		Metric{Name: "ns/op", Value: 100},
		Metric{Name: "allocs/op", Value: 5},
	)
	cmp, err := Compare(base, cand, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	var classes []string
	for _, d := range cmp.Deltas {
		classes = append(classes, d.Metric+":"+d.Class)
	}
	want := []string{"ns/op:unchanged", "sim-cycles:missing", "allocs/op:added"}
	if strings.Join(classes, " ") != strings.Join(want, " ") {
		t.Errorf("deltas = %v, want %v", classes, want)
	}
	if cmp.Ok() {
		t.Error("missing exact metric did not gate")
	}

	// A whole entry missing from the candidate gates; a new entry in the
	// candidate does not.
	extra := &Report{Schema: Schema, Entries: []Measurement{
		{Name: "e", Metrics: []Metric{{Name: "ns/op", Value: 100}}},
		{Name: "extra", Metrics: []Metric{{Name: "ns/op", Value: 1}}},
	}}
	cmp, err = Compare(report(Metric{Name: "ns/op", Value: 100}), extra, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Ok() {
		t.Errorf("added entry gated:\n%s", cmp)
	}
	cmp, err = Compare(extra, report(Metric{Name: "ns/op", Value: 100}), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Ok() {
		t.Error("missing entry did not gate")
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	a := report(Metric{Name: "ns/op", Value: 1})
	b := report(Metric{Name: "ns/op", Value: 1})
	b.Schema = Schema + 1
	if _, err := Compare(a, b, 0.1); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch: got %v", err)
	}
	if _, err := Compare(a, b, -1); err == nil {
		// threshold validation is independent of schema, but any error is fine
		t.Error("negative threshold accepted")
	}
}

func TestParseThreshold(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		err  bool
	}{
		{"10%", 0.10, false},
		{"0.1", 0.1, false},
		{"400%", 4.0, false},
		{"0", 0, false},
		{"-5%", 0, true},
		{"x", 0, true},
	} {
		got, err := ParseThreshold(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseThreshold(%q) err = %v, want err=%v", tc.in, err, tc.err)
			continue
		}
		if !tc.err && got != tc.want {
			t.Errorf("ParseThreshold(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestReportRoundTrip: WriteJSON output reloads to an equal report, and a
// report without a schema version is rejected.
func TestReportRoundTrip(t *testing.T) {
	r := report(
		Metric{Name: "ns/op", Value: 123, Median: 130, Stddev: 4},
		Metric{Name: "sim-cycles", Value: 42, Exact: true},
	)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/bench.json"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(r)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Errorf("round trip changed the report:\n%s\nvs\n%s", a, b)
	}

	if err := os.WriteFile(path, []byte(`{"suite":"t"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema-less report: got %v", err)
	}
}

func TestHostMetricAggregation(t *testing.T) {
	m := hostMetric("ns/op", []float64{30, 10, 20})
	if m.Value != 10 || m.Median != 20 {
		t.Errorf("min/median = %v/%v, want 10/20", m.Value, m.Median)
	}
	if m.Stddev != 10 {
		t.Errorf("stddev = %v, want 10", m.Stddev)
	}
	one := hostMetric("ns/op", []float64{7})
	if one.Value != 7 || one.Median != 7 || one.Stddev != 0 {
		t.Errorf("single sample: %+v", one)
	}
}
