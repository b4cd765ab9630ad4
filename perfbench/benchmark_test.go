package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) (*benchmarkFile, map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	return &b, units
}

func TestBenchmarkFileMatches(t *testing.T) {
	b, _ := readBenchmarkFile(t)
	var workloads, e2e, layers []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	var ours []string
	for _, w := range workloadList {
		ours = append(ours, w.name)
	}
	if !slices.Equal(workloads, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", workloads, ours)
	}
	if !slices.Equal(e2e, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEndMetrics)
	}
	if !slices.Equal(layers, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", layers, perLayerMetrics)
	}
}

// runResult runs the benchmark and decodes its last output line.
func runResult(t *testing.T, args ...string) jsonResult {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "--dir", t.TempDir()), &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("result %+v\n%s", res, out.String())
	}
	return res
}

func checkUnits(t *testing.T, res jsonResult, names []string, units map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(names) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(names))
	}
	for _, n := range names {
		m, ok := res.Metrics[n]
		switch {
		case !ok:
			t.Errorf("metric %s missing", n)
		case m.Unit != units[n]:
			t.Errorf("metric %s in %s, BENCHMARK.json says %s", n, m.Unit, units[n])
		}
	}
}

// TestWorkloadsShortRun runs one round of each workload, which exercises
// every output check.
func TestWorkloadsShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	_, units := readBenchmarkFile(t)
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			res := runResult(t, "--workload", w.name, "--seconds", "1")
			checkUnits(t, res, endToEndMetrics, units)
			for _, n := range endToEndMetrics {
				if res.Metrics[n].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", n, res.Metrics[n].Value)
				}
			}
		})
	}
}

// TestTracedRunReproducesUntraced makes one traced run: every workload's
// traced pass must reproduce its untraced outputs, and every per-layer
// metric must be reported.
func TestTracedRunReproducesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	_, units := readBenchmarkFile(t)
	res := runResult(t, "--workload", "serve", "--trace", "1")
	checkUnits(t, res, perLayerMetrics, units)
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"--workload", "nope"}, &out); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
