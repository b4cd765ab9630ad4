package exp

import (
	"bytes"
	"strings"
	"testing"
)

// small runs an experiment at small scale and returns its output.
func small(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := RunByID(&buf, id, Options{Scale: "small", Tiles: 4}); err != nil {
		t.Fatalf("%s: %v\noutput so far:\n%s", id, err, buf.String())
	}
	return buf.String()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"ablation-locks", "ablation-release", "ablation-scaling", "ablation-dcache", "ablation-granularity",
		"ablation-explorer", "bulk-ablation", "mixed-ablation",
		"ext-stencil", "ext-pc", "ext-scoped-fence", "ext-mesh", "ext-conformance",
		"sweep-scaling", "sweep-clusters", "sweep-services", "fuzz", "spec-ablation",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := RunByID(&buf, "nope", Options{}); err == nil {
		t.Fatal("unknown id not rejected")
	}
}

// TestScaleValidated is the regression test for the silent scale fallback:
// every string except "small" used to mean full paper scale, so a typo like
// "smalll" silently ran the expensive configuration.
func TestScaleValidated(t *testing.T) {
	var buf bytes.Buffer
	for _, bad := range []string{"smalll", "SMALL", "tiny", "paper"} {
		if err := RunByID(&buf, "table1", Options{Scale: bad}); err == nil {
			t.Errorf("scale %q not rejected by RunByID", bad)
		} else if !strings.Contains(err.Error(), "small") {
			t.Errorf("error for %q does not list valid values: %v", bad, err)
		}
		if err := RunAll(&buf, Options{Scale: bad}); err == nil {
			t.Errorf("scale %q not rejected by RunAll", bad)
		}
	}
	for _, good := range []string{"", "small", "full"} {
		if err := RunByID(&buf, "table1", Options{Scale: good}); err != nil {
			t.Errorf("valid scale %q rejected: %v", good, err)
		}
	}
}

func TestSweepScalingSmall(t *testing.T) {
	out := small(t, "sweep-scaling")
	for _, want := range []string{"radiosity", "raytrace", "volrend", "nocc", "swcc", "dsm", "spm",
		"mesh", "ring", "flit-hops", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep-scaling missing %q in:\n%s", want, out)
		}
	}
}

// TestSweepClustersSmall: the cluster-scaling grid completes at CI size, the
// checksum-portability assertion inside the experiment holds (a failure
// surfaces as an experiment error), and the report includes the 1024-tile
// smoke cell plus the hierarchical flit-hop split.
func TestSweepClustersSmall(t *testing.T) {
	out := small(t, "sweep-clusters")
	for _, want := range []string{"radiosity", "nocc", "dsm", "cdsm", "cspm",
		"cluster:8xring", "cluster:16xmesh", "1024-tile smoke", "local/global", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep-clusters missing %q in:\n%s", want, out)
		}
	}
}

// TestSweepServicesSmall: the open-loop service grid completes at CI size.
// The experiment itself asserts full-request completion, cross-cell checksum
// portability, and byte-identical emission across worker counts — any
// violation surfaces here as an experiment error. The report
// must carry the latency tables for all three scenarios on both shapes.
func TestSweepServicesSmall(t *testing.T) {
	out := small(t, "sweep-services")
	for _, want := range []string{"server", "kvstore", "stream",
		"nocc", "dsm", "adaptive", "cdsm", "cluster:4xring",
		"p50/p99", "byte-identically", "req/kcycle"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep-services missing %q in:\n%s", want, out)
		}
	}
}

func TestTable1(t *testing.T) {
	out := small(t, "table1")
	for _, want := range []string{"≺S†", "fence", "acquire"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig1(t *testing.T) {
	out := small(t, "fig1")
	if !strings.Contains(out, "stale outcome observable") {
		t.Fatalf("fig1 must demonstrate the broken outcome:\n%s", out)
	}
	if !strings.Contains(out, "fig1-volatile-fences") {
		t.Fatal("fig1 must include the volatile/fence variant")
	}
}

func TestFigGraphs(t *testing.T) {
	for _, id := range []string{"fig2", "fig3", "fig4", "fig5"} {
		out := small(t, id)
		if !strings.Contains(out, "digraph") || !strings.Contains(out, "≺P") {
			t.Errorf("%s output lacks graph content:\n%s", id, out)
		}
	}
	// Fig 5's graph must contain the ≺S handoff and fence edges.
	out := small(t, "fig5")
	for _, want := range []string{"≺S", "≺F", "readable at process 2's read of X: [42]"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 missing %q", want)
		}
	}
}

func TestFig6(t *testing.T) {
	out := small(t, "fig6")
	if !strings.Contains(out, "poll=1 rX=42") {
		t.Fatalf("fig6 must show the unique annotated outcome:\n%s", out)
	}
	if strings.Contains(out, "WRONG") {
		t.Fatalf("a backend failed message passing:\n%s", out)
	}
	for _, backend := range []string{"nocc", "swcc", "swcc-lazy", "dsm", "spm"} {
		if !strings.Contains(out, backend) {
			t.Errorf("fig6 matrix missing backend %s", backend)
		}
	}
}

func TestTable2(t *testing.T) {
	out := small(t, "table2")
	for _, want := range []string{"entry_x", "exit_ro", "flush", "broadcast", "42 ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestFig7(t *testing.T) {
	out := small(t, "fig7")
	for _, want := range []string{"write-only", "dual-port", "distributed"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 missing %q", want)
		}
	}
}

func TestFig8SmallScale(t *testing.T) {
	out := small(t, "fig8")
	for _, want := range []string{"radiosity", "raytrace", "volrend", "average improvement", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig8 missing %q in:\n%s", want, out)
		}
	}
	// The report must show a positive average improvement.
	if strings.Contains(out, "average improvement: -") {
		t.Fatalf("SWCC regressed on average:\n%s", out)
	}
}

func TestFig9SmallScale(t *testing.T) {
	out := small(t, "fig9")
	if strings.Contains(out, "NO DATA") {
		t.Fatalf("fifo produced no data:\n%s", out)
	}
	for _, backend := range []string{"nocc", "swcc", "dsm", "spm"} {
		if !strings.Contains(out, backend) {
			t.Errorf("fig9 missing backend %s", backend)
		}
	}
}

func TestFig10SmallScale(t *testing.T) {
	out := small(t, "fig10")
	if !strings.Contains(out, "spm") || !strings.Contains(out, "swcc") {
		t.Fatalf("fig10 missing backends:\n%s", out)
	}
}

func TestAblations(t *testing.T) {
	for _, id := range []string{"ablation-locks", "ablation-release", "ablation-scaling",
		"ablation-dcache", "ablation-granularity", "ablation-explorer",
		"ext-stencil", "ext-pc", "ext-scoped-fence", "ext-mesh", "ext-conformance"} {
		id := id
		t.Run(id, func(t *testing.T) {
			out := small(t, id)
			if len(out) < 100 {
				t.Fatalf("suspiciously short report:\n%s", out)
			}
		})
	}
}

// TestFuzzExpSmall: the fuzz experiment must show clean healthy campaigns
// in every mode and a caught, shrunk fault-injection counterexample.
func TestFuzzExpSmall(t *testing.T) {
	out := small(t, "fuzz")
	for _, want := range []string{
		"drf:", "racy:", "mixed:", "0 violations, 0 run errors",
		"release-without-flush", "shrunk", "entry_x(", "exit_x(",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fuzz experiment missing %q in:\n%s", want, out)
		}
	}
}

func TestRunAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf, Options{Scale: "small", Tiles: 4}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "=== "); n != len(All()) {
		t.Fatalf("RunAll printed %d banners, want %d", n, len(All()))
	}
}

// TestSpecAblation: the spec-ablation experiment shows platform-size
// independence, the symmetry collapse, and the injected-fault detection
// line, and exits clean at small scale.
func TestSpecAblation(t *testing.T) {
	out := small(t, "spec-ablation")
	for _, want := range []string{
		"work@32==work@1024", "iriw-sym3", "fault detection", "divergences",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("spec-ablation output lacks %q:\n%s", want, out)
		}
	}
}
