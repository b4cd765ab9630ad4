package soc_test

import (
	"fmt"
	"testing"

	"pmc/internal/mem"
	"pmc/internal/noc"
	"pmc/internal/rt"
	"pmc/internal/sim"
	"pmc/internal/soc"
	"pmc/internal/workloads"
)

// The lockstep tests run the same simulation twice, once with the product
// instruction fetch (a kernel continuation) and once with the per-line
// reference loop (soc.UseLineWaitReference), and require the kernel to see
// the identical sequence of (at, seq) event pushes. Equal pushes mean equal
// dispatch order, so every simulated result is equal too.

type push struct {
	at  sim.Time
	seq uint64
}

// logPushes records every event k schedules from now on.
func logPushes(k *sim.Kernel) *[]push {
	log := new([]push)
	k.OnSchedule(func(at sim.Time, seq uint64) { *log = append(*log, push{at, seq}) })
	return log
}

// comparePushes fails t at the first push where got and the reference
// differ.
func comparePushes(t *testing.T, what string, ref, got []push) {
	t.Helper()
	for i := range min(len(ref), len(got)) {
		if ref[i] != got[i] {
			t.Fatalf("%s: push %d is (at %d, seq %d), reference (at %d, seq %d)",
				what, i, got[i].at, got[i].seq, ref[i].at, ref[i].seq)
		}
	}
	if len(ref) != len(got) {
		t.Fatalf("%s: %d pushes, reference %d", what, len(got), len(ref))
	}
}

// xorshift is the storm's deterministic pseudo-random source.
type xorshift uint32

func (r *xorshift) next(n uint32) uint32 {
	*r ^= *r << 13
	*r ^= *r >> 17
	*r ^= *r << 5
	return uint32(*r) % n
}

// fetchStorm runs processes that interleave instruction fetch with SDRAM
// traffic, plain waits and loop-shape changes, two of them on each of
// tiles 0 and 1 so their walks share a pc and an I-cache, against a
// background storm of events that book SDRAM lines. Most code loops exceed
// the I-cache, so lines miss and fills contend with the storm's bookings.
func fetchStorm(t *testing.T, ref bool) ([]push, sim.Stats, []soc.TileStats) {
	t.Helper()
	cfg := soc.DefaultConfig()
	cfg.Tiles = 4
	s, err := soc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref {
		soc.UseLineWaitReference(s)
	}
	log := logPushes(s.K)

	rng := xorshift(0x5eed1234)
	fired := 0
	var storm func()
	storm = func() {
		fired++
		if fired > 2000 {
			return
		}
		s.SDRAM.ReserveLineAt(s.K.Now(), mem.Addr(rng.next(1<<16))&^31)
		for n := rng.next(3) + 1; n > 0; n-- {
			s.K.Schedule(sim.Time(rng.next(96)), storm)
		}
	}
	s.K.Schedule(0, storm)

	for i, tile := range []int{0, 0, 1, 1, 2, 3} {
		tl := s.Tiles[tile]
		prng := xorshift(0x9e3779b9 + uint32(i)*7919)
		s.K.Spawn(fmt.Sprintf("core%d", i), func(p *sim.Proc) {
			for round := 0; round < 60; round++ {
				switch prng.next(8) {
				case 0:
					p.Wait(sim.Time(prng.next(40)))
				case 1:
					s.SDRAM.AccessLine(p, mem.Addr(prng.next(1<<16))&^31)
				case 2:
					// One-line regions let a walk cross a region end
					// while another walk on the tile is mid-line.
					base := 0x10000 + mem.Addr(tile)*0x8000
					hot := []int{32, 64, 512, 2048, 4096}[prng.next(5)]
					cold := []int{0, 32, 1024, 4096, 8192}[prng.next(5)]
					tl.SetCodeLoop(base, hot, cold, int(prng.next(4))+1)
				case 3:
					tl.Exec(p, 1)
				default:
					tl.Exec(p, int(prng.next(600))+1)
				}
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var stats []soc.TileStats
	for _, tl := range s.Tiles {
		stats = append(stats, tl.Stats)
	}
	return *log, s.K.Stats(), stats
}

// TestFetchLockstepStorm: under an event storm, with two processes walking
// one tile's I-cache at once, the continuation pushes exactly the
// reference's events and ends with the same tile counters.
func TestFetchLockstepStorm(t *testing.T) {
	ref, refStats, refTiles := fetchStorm(t, true)
	got, gotStats, gotTiles := fetchStorm(t, false)
	if len(ref) < 5000 {
		t.Fatalf("storm too small to be meaningful: %d pushes", len(ref))
	}
	comparePushes(t, "storm", ref, got)
	for i := range refTiles {
		if gotTiles[i] != refTiles[i] {
			t.Errorf("tile %d counters %+v, reference %+v", i, gotTiles[i], refTiles[i])
		}
	}
	if gotStats.Steps == 0 || gotStats.Resumes >= refStats.Resumes {
		t.Errorf("continuation took no kernel steps: %+v (reference %+v)", gotStats, refStats)
	}
}

// cellRun is what one lockstep cell observes.
type cellRun struct {
	pushes   []push
	cycles   sim.Time
	checksum uint32
	total    soc.TileStats
	kernel   sim.Stats
}

// runCell runs one workload cell the way workloads.Run does. With extra
// set it also spawns a second process on tile 0 that computes in bursts
// while the tile's worker runs, so two walks share that tile's I-cache.
func runCell(t *testing.T, app, backend string, tiles int, topo string, ref, extra bool) cellRun {
	t.Helper()
	a, ok := workloads.Scaled(app, true)
	if !ok {
		t.Fatalf("unknown workload %q", app)
	}
	b, err := rt.ByName(backend)
	if err != nil {
		t.Fatal(err)
	}
	cfg := soc.DefaultConfig()
	cfg.Tiles = tiles
	cfg.MaxCycles = 500_000_000
	cfg.SDRAMBytes = max(cfg.SDRAMBytes, rt.MinSDRAMBytes(tiles))
	if topo != "" {
		tp, err := noc.ParseTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		cfg.NoC.Topology = tp
	}
	s, err := soc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref {
		soc.UseLineWaitReference(s)
	}
	log := logPushes(s.K)
	r := rt.New(s, b)
	a.Setup(r, tiles)
	for tile := 0; tile < tiles; tile++ {
		r.Spawn(tile, fmt.Sprintf("%s-w%d", a.Name(), tile), func(c *rt.Ctx) {
			a.Worker(c, tile, tiles)
		})
	}
	if extra {
		s.K.Spawn("extra", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				s.Tiles[0].Exec(p, 17+i%90)
				p.Wait(sim.Time(i % 7))
			}
		})
	}
	if err := r.Run(); err != nil {
		t.Fatalf("%s on %s: %v", app, backend, err)
	}
	return cellRun{*log, s.K.Now(), a.Checksum(r), s.TotalStats(), s.K.Stats()}
}

// TestFetchLockstepCells runs every workload on every backend, on the flat
// and a clustered platform, plus a cell with two processes on one tile,
// under both fetch paths and requires identical pushes and results.
func TestFetchLockstepCells(t *testing.T) {
	backends := []string{"nocc", "swcc", "swcc-lazy", "dsm", "cdsm", "spm", "cspm", "adaptive"}
	shapes := []struct {
		tiles int
		topo  string
	}{{8, ""}, {16, "cluster:4xring"}}
	type cell struct {
		app, backend string
		tiles        int
		topo         string
		extra        bool
	}
	var cells []cell
	for _, app := range workloads.Names {
		for _, b := range backends {
			for _, sh := range shapes {
				cells = append(cells, cell{app, b, sh.tiles, sh.topo, false})
			}
		}
	}
	cells = append(cells, cell{"radiosity", "swcc", 8, "", true}, cell{"server", "dsm", 8, "", true})
	if testing.Short() {
		cells = cells[len(cells)-4:]
	}
	var steps uint64
	for _, c := range cells {
		what := fmt.Sprintf("%s on %s, %d tiles %q, extra=%v", c.app, c.backend, c.tiles, c.topo, c.extra)
		ref := runCell(t, c.app, c.backend, c.tiles, c.topo, true, c.extra)
		got := runCell(t, c.app, c.backend, c.tiles, c.topo, false, c.extra)
		comparePushes(t, what, ref.pushes, got.pushes)
		if got.cycles != ref.cycles || got.checksum != ref.checksum || got.total != ref.total {
			t.Fatalf("%s: cycles %d checksum %#x total %+v, reference %d %#x %+v",
				what, got.cycles, got.checksum, got.total, ref.cycles, ref.checksum, ref.total)
		}
		if got.kernel.Events != ref.kernel.Events || got.kernel.Resumes > ref.kernel.Resumes {
			t.Fatalf("%s: kernel %+v, reference %+v", what, got.kernel, ref.kernel)
		}
		steps += got.kernel.Steps
	}
	if steps == 0 {
		t.Fatal("no cell ran a fetch step in the kernel")
	}
}

// TestFetchZeroAllocs: a warmed walk allocates nothing, whether its steps
// run in place, inside kernel events, or on a second walker taken while
// another process on the same tile is mid-walk.
func TestFetchZeroAllocs(t *testing.T) {
	cfg := soc.DefaultConfig()
	cfg.Tiles = 2
	s, err := soc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range s.Tiles {
		tl.SetCodeLoop(0x10000+mem.Addr(tl.ID)*0x8000, 2048, 6144, 2)
	}
	stop := false
	busy := func(tile int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			for !stop {
				s.Tiles[tile].Exec(p, 37)
			}
		}
	}
	s.K.Spawn("other-tile", busy(1))
	s.K.Spawn("same-tile", busy(0))
	var allocs float64
	var before, after sim.Stats
	s.K.Spawn("measured", func(p *sim.Proc) {
		tl := s.Tiles[0]
		for i := 0; i < 50; i++ {
			tl.Exec(p, 300) // warm the caches, event pool and both walkers
		}
		before = s.K.Stats()
		allocs = testing.AllocsPerRun(100, func() { tl.Exec(p, 300) })
		after = s.K.Stats()
		stop = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a warmed Tile.Exec allocates %.1f times per call, want 0", allocs)
	}
	if after.Steps == before.Steps {
		t.Error("no step ran inside a kernel event while measuring")
	}
}
