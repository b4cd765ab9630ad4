package workloads

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmc/internal/noc"
	"pmc/internal/sim"
	"pmc/internal/soc"
)

// updateGolden rewrites testdata/domain_golden.txt from the current code.
//
//	go test ./internal/workloads -run TestDomainBackendsGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/domain_golden.txt from the current results")

const goldenPath = "testdata/domain_golden.txt"

// goldenBackends are the paper's uncached and software-coherent backends
// (eager and lazy), the replicated and staging backends in both memory domains (tile-local
// and cluster scratch), and the adaptive router that delegates to them.
var goldenBackends = []string{"nocc", "swcc", "swcc-lazy", "dsm", "cdsm", "spm", "cspm", "adaptive"}

// goldenShapes are the flat paper platform and a clustered one.
var goldenShapes = []struct {
	name  string
	tiles int
	topo  string
}{
	{"flat8", 8, ""},
	{"c4xring16", 16, "cluster:4xring"},
}

// goldenLine runs one cell and renders every exact metric it produces.
func goldenLine(t *testing.T, app string, backend string, tiles int, topo string) string {
	t.Helper()
	a, ok := Scaled(app, true)
	if !ok {
		t.Fatalf("unknown workload %q", app)
	}
	cfg := smallCfg(tiles)
	if topo != "" {
		tp, err := noc.ParseTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		cfg.NoC.Topology = tp
	}
	res, err := Run(a, cfg, backend)
	if err != nil {
		t.Fatalf("%s on %s (%d tiles %q): %v", app, backend, tiles, topo, err)
	}
	line := fmt.Sprintf("cycles=%d checksum=%#08x flithops=%d local=%d global=%d msgs=%d bytes=%d total=%s",
		res.Cycles, res.Checksum, res.FlitHops, res.LocalFlitHops, res.GlobalFlitHops,
		res.NoCMessages, res.NoCBytes, statsString(res.Total))
	if s := res.Service; s != nil {
		line += fmt.Sprintf(" service=offered:%d completed:%d p50:%d p99:%d hist:%#08x",
			s.Offered, s.Completed, s.Latency.Quantile(0.50), s.Latency.Quantile(0.99), s.Latency.Fingerprint())
	}
	return line
}

func statsString(s soc.TileStats) string {
	return fmt.Sprintf("busy:%d istall:%d privrd:%d shrd:%d wr:%d flush:%d lock:%d copy:%d instrs:%d flushinstrs:%d shreads:%d shwrites:%d privreads:%d privwrites:%d",
		s.Busy, s.IStall, s.PrivReadStall, s.SharedReadStall, s.WriteStall, s.FlushStall, s.LockWait, s.CopyStall,
		s.Instrs, s.FlushInstrs, s.SharedReads, s.SharedWrites, s.PrivReads, s.PrivWrites)
}

// TestDomainBackendsGolden pins every exact metric of every backend
// across every workload, on a flat and a clustered platform: makespan,
// checksum, NoC traffic, the full summed tile counters and, for service
// workloads, the offered and completed requests and the latency tail. Any change in how a backend places, moves or
// charges its copies shows up here as a differing line.
func TestDomainBackendsGolden(t *testing.T) {
	var got []string
	for _, app := range Names {
		for _, b := range goldenBackends {
			for _, sh := range goldenShapes {
				key := fmt.Sprintf("%s %s %s", app, b, sh.name)
				got = append(got, key+" "+goldenLine(t, app, b, sh.tiles, sh.topo))
			}
		}
	}
	body := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%s missing (%v); generate it with: go test ./internal/workloads -run TestDomainBackendsGolden -update", goldenPath, err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d cells, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("cell %d differs:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// TestKernelCountsGolden pins the kernel's dispatch counters for one small
// golden cell. They are host-cost counters, so a change may move them
// while every simulated result stays put; this test makes such a move
// explicit. The event count, in-place and slow wait counts follow from
// the simulated schedule alone, so an exact kernel optimisation keeps
// them and only cuts coroutine resumes: running the I-fetch line walk as
// a kernel continuation cut this cell from 31026 resumes to 12716, with
// 29270 steps run in the kernel instead.
func TestKernelCountsGolden(t *testing.T) {
	a, _ := Scaled("radiosity", true)
	res, err := Run(a, smallCfg(8), "swcc")
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Stats{Events: 32274, InPlace: 4865, Slow: 30602, Resumes: 12716, Steps: 29270}
	if res.Kernel != want {
		t.Errorf("kernel counters:\n got  %+v\n want %+v", res.Kernel, want)
	}
}
