package main

import (
	"fmt"
	"time"

	"pmc/internal/noc"
	"pmc/internal/rt"
	"pmc/internal/soc"
	"pmc/internal/stats"
	"pmc/internal/sweep"
	"pmc/internal/workloads"
)

// The simulate workload: one sweep grid at paper scale — eight
// applications × the seven backends × 16, 64 and 256 tiles on a clustered
// mesh, plus one 1024-tile cell. A job is one grid cell; a round is the
// whole grid. The seed only permutes the axis order (differently in every
// round), so every output is the same for every seed. Every cell starts on a fresh system, with
// empty caches.
var (
	simApps     = []string{"radiosity", "raytrace", "volrend", "mfifo", "motionest", "server", "kvstore", "stream"}
	simBackends = []string{"nocc", "swcc", "dsm", "spm", "cdsm", "cspm", "adaptive"}
	simTiles    = []int{16, 64, 256}
	// The kilotile cell: radiosity on the cluster-aware replicated
	// backend.
	bigApp, bigBackend, bigTiles = "radiosity", "cdsm", 1024
)

const (
	simTopology = "cluster:8xmesh"
	simWorkers  = 2
)

// gridSpecs builds round k's two sweeps (the grid and the kilotile cell)
// with the axes permuted by seed and k. newApp backs each sweep's Make
// hook; its first argument tells the sweeps apart.
func gridSpecs(seed int64, k int, newApp func(sweepIdx int, c sweep.Cell) (workloads.App, error)) ([]sweep.Spec, error) {
	topo, err := noc.ParseTopology(simTopology)
	if err != nil {
		return nil, err
	}
	rng := roundRand(seed, k)
	apps := append([]string(nil), simApps...)
	backends := append([]string(nil), simBackends...)
	tiles := append([]int(nil), simTiles...)
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	rng.Shuffle(len(backends), func(i, j int) { backends[i], backends[j] = backends[j], backends[i] })
	rng.Shuffle(len(tiles), func(i, j int) { tiles[i], tiles[j] = tiles[j], tiles[i] })
	// Large systems need the SDRAM to cover the runtime's per-tile
	// arenas.
	configure := func(c sweep.Cell, cfg *soc.Config) {
		cfg.SDRAMBytes = max(cfg.SDRAMBytes, rt.MinSDRAMBytes(c.Tiles))
	}
	specs := []sweep.Spec{
		{Apps: apps, Backends: backends, Tiles: tiles},
		{Apps: []string{bigApp}, Backends: []string{bigBackend}, Tiles: []int{bigTiles}},
	}
	for i := range specs {
		i := i
		specs[i].Topos = []noc.Topology{topo}
		specs[i].Workers = simWorkers
		specs[i].Configure = configure
		specs[i].Make = func(c sweep.Cell) (workloads.App, error) { return newApp(i, c) }
		for _, c := range specs[i].Cells() {
			if _, ok := workloads.ByName(c.App); !ok {
				return nil, fmt.Errorf("simulate: unknown app %q", c.App)
			}
			if _, err := rt.ByName(c.Backend); err != nil {
				return nil, err
			}
		}
	}
	return specs, nil
}

// cellRecord is what the benchmark observes of one cell from outside:
// the times its phases began and ended, and (traced) the simulated
// component counters read from the finished system.
type cellRecord struct {
	made, setupStart, setupEnd, runEnd, done time.Time
	comp                                     components
}

// components are a finished cell's simulated component counters.
type components struct {
	DCHits, DCMisses, ICMisses, Writebacks      uint64
	NoCMessages, NoCBytes, FlitHops, GlobalHops uint64
	WordReads, WordWrites, LineFills, LineWBs   uint64
	LockAcquires, LockHandoffs, LockWaitCycles  uint64
}

func readComponents(sys *soc.System) components {
	var c components
	for _, t := range sys.Tiles {
		dc, ic := t.DC.Stats(), t.IC.Stats()
		c.DCHits += dc.Hits
		c.DCMisses += dc.Misses
		c.Writebacks += dc.Writebacks
		c.ICMisses += ic.Misses
	}
	n := sys.Net.Stats()
	c.NoCMessages, c.NoCBytes, c.FlitHops, c.GlobalHops = n.Messages, n.Bytes, n.FlitHops, n.GlobalFlitHops
	c.WordReads, c.WordWrites = sys.SDRAM.WordReads, sys.SDRAM.WordWrites
	c.LineFills, c.LineWBs = sys.SDRAM.LineFills, sys.SDRAM.LineWBs
	if sys.DLock != nil {
		l := sys.DLock.Stats()
		c.LockAcquires, c.LockHandoffs, c.LockWaitCycles = l.Acquires, l.Handoffs, uint64(l.WaitTime)
	}
	return c
}

// cellApp wraps a cell's workload to time its phases: Make, Setup, the
// simulation, and Checksum, which the sweep calls once the run finished.
type cellApp struct {
	workloads.App
	rec    *cellRecord
	traced bool
}

func (a *cellApp) Setup(r *rt.Runtime, tiles int) {
	a.rec.setupStart = time.Now()
	a.App.Setup(r, tiles)
	a.rec.setupEnd = time.Now()
}

func (a *cellApp) Checksum(r *rt.Runtime) uint32 {
	a.rec.runEnd = time.Now()
	if a.traced {
		a.rec.comp = readComponents(r.Sys)
	}
	sum := a.App.Checksum(r)
	a.rec.done = time.Now()
	return sum
}

// serviceCellApp keeps a service workload's metrics visible through the
// wrapper.
type serviceCellApp struct {
	*cellApp
	svc workloads.ServiceApp
}

func (a serviceCellApp) Service() *stats.Service { return a.svc.Service() }

// grid is one executed round.
type grid struct {
	rows    []sweep.Row
	records []*cellRecord
	wall    time.Duration
}

// runGrid executes both sweeps of round k.
func runGrid(seed int64, k int, traced bool) (*grid, error) {
	var recs [2][]*cellRecord
	specs, err := gridSpecs(seed, k, func(s int, c sweep.Cell) (workloads.App, error) {
		rec := &cellRecord{made: time.Now()}
		recs[s][c.Index] = rec
		inner, _ := workloads.ByName(c.App)
		wrapped := &cellApp{App: inner, rec: rec, traced: traced}
		if svc, ok := inner.(workloads.ServiceApp); ok {
			return serviceCellApp{wrapped, svc}, nil
		}
		return wrapped, nil
	})
	if err != nil {
		return nil, err
	}
	g := &grid{}
	start := time.Now()
	for i, s := range specs {
		recs[i] = make([]*cellRecord, len(s.Cells()))
		table, err := sweep.Run(s)
		if table == nil {
			return nil, err
		}
		g.rows = append(g.rows, table.Rows...)
		g.records = append(g.records, recs[i]...)
	}
	g.wall = time.Since(start)
	return g, nil
}

// cellOutput is a cell's exact output, keyed by its grid coordinates so
// that outputs compare across axis orders.
type cellOutput struct {
	Cell     string `json:"cell"`
	Cycles   uint64 `json:"cycles"`
	Checksum uint32 `json:"checksum"`
}

func (g *grid) outputs() map[string]cellOutput {
	out := make(map[string]cellOutput, len(g.rows))
	for _, r := range g.rows {
		key := fmt.Sprintf("%s/%s/%dt", r.App, r.Backend, r.Tiles)
		out[key] = cellOutput{Cell: key, Cycles: r.Cycles, Checksum: r.Checksum}
	}
	return out
}

// check reports cell errors and checksum disagreements: every app must
// compute the same checksum on every backend and tile count.
func (g *grid) check(rep *report) {
	want := map[string]uint32{}
	var failed int64
	for _, r := range g.rows {
		switch sum, seen := want[r.App]; {
		case r.Err != "":
			rep.problem("simulate cell %s/%s/%dt: %s", r.App, r.Backend, r.Tiles, r.Err)
			failed++
		case !seen:
			want[r.App] = r.Checksum
		case r.Checksum != sum:
			rep.problem("simulate cell %s/%s/%dt: checksum %#x, other cells of %s give %#x", r.App, r.Backend, r.Tiles, r.Checksum, r.App, sum)
			failed++
		}
	}
	rep.ops(int64(len(g.rows)), failed)
}

func (g *grid) cycleGeomean() float64 {
	var cycles []float64
	for _, r := range g.rows {
		cycles = append(cycles, float64(r.Cycles))
	}
	return geomean(cycles)
}

func runSimulate(e *env, seed int64, seconds time.Duration, rep *report) ([]round, latencies, error) {
	set := &setups{what: "build, expand and validate the grid", fn: func(sw *stopwatch) error {
		sw.start()
		defer sw.stop()
		_, err := gridSpecs(seed, 0, nil)
		return err
	}}
	var jobs latencies
	var first map[string]cellOutput
	var geo float64
	rounds, err := runRounds(rep, seconds, set, func(k int, r *round) error {
		g, err := runGrid(seed, k, false)
		if err != nil {
			return err
		}
		g.check(rep)
		if k == 0 {
			first, geo = g.outputs(), g.cycleGeomean()
		} else if diff := compareOutputs(first, g.outputs()); diff != "" {
			rep.problem("simulate round %d differs from round 0: %s", k, diff)
		}
		r.wall, r.jobs, r.programs = g.wall, len(g.rows), len(g.rows)
		for _, rec := range g.records {
			jobs = append(jobs, rec.done.Sub(rec.made))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rep.add("sim_cycles_geomean", geo, "cycles", fmt.Sprintf("exact, over %d cells", len(first)))
	return rounds, jobs, nil
}

// passSimulate runs one round; traced, it also reports the simulator's
// layers from the cell phases and the simulated counters.
func passSimulate(e *env, seed int64, tr *tracer, rep *report) (any, time.Duration, error) {
	g, err := runGrid(seed, 0, tr != nil)
	if err != nil {
		return nil, 0, err
	}
	g.check(rep)
	if tr != nil {
		simulateLayers(rep, tr, g)
	}
	return g.outputs(), g.wall, nil
}

// simulateLayers records each cell's phases as spans and reports the
// simulator's layers.
func simulateLayers(rep *report, tr *tracer, g *grid) {
	var cellSum time.Duration
	var comp components
	var t soc.TileStats
	var svcP99 []float64
	for i, rec := range g.records {
		op := int64(i)
		cell := tr.record("sweep.cell", 0, op, rec.made, rec.done)
		tr.record("soc.build", cell, op, rec.made, rec.setupStart)
		tr.record("workloads.setup", cell, op, rec.setupStart, rec.setupEnd)
		tr.record("rt.run", cell, op, rec.setupEnd, rec.runEnd)
		tr.record("workloads.checksum", cell, op, rec.runEnd, rec.done)
		cellSum += rec.done.Sub(rec.made)
		c := rec.comp
		comp.DCHits += c.DCHits
		comp.DCMisses += c.DCMisses
		comp.ICMisses += c.ICMisses
		comp.Writebacks += c.Writebacks
		comp.NoCMessages += c.NoCMessages
		comp.NoCBytes += c.NoCBytes
		comp.FlitHops += c.FlitHops
		comp.GlobalHops += c.GlobalHops
		comp.WordReads += c.WordReads
		comp.WordWrites += c.WordWrites
		comp.LineFills += c.LineFills
		comp.LineWBs += c.LineWBs
		comp.LockAcquires += c.LockAcquires
		comp.LockHandoffs += c.LockHandoffs
		comp.LockWaitCycles += c.LockWaitCycles
		r := g.rows[i]
		if r.Result != nil {
			t.Add(r.Result.Total)
		}
		if r.P99Latency > 0 {
			svcP99 = append(svcP99, float64(r.P99Latency))
		}
	}
	spans := tr.snapshot()
	cells := len(g.records)
	med := func(name string) float64 { return median(durations(spans, name)) }
	note := fmt.Sprintf("median of %d cells", cells)
	rep.add("soc.build_ms", med("soc.build"), "ms", note)
	rep.add("workloads.setup_ms", med("workloads.setup"), "ms", note)
	rep.add("rt.run_ms", med("rt.run"), "ms", note)
	rep.add("sim.instrs", float64(t.Instrs), "count", "exact")
	perInstr := 0.0
	if t.Instrs > 0 {
		perInstr = float64(total(spans, "rt.run").Nanoseconds()) / float64(t.Instrs)
	}
	rep.add("sim.host_ns_per_instr", perInstr, "ns", "simulation host time over simulated instructions")
	rep.add("workloads.service_p99_cycles", median(svcP99), "cycles", fmt.Sprintf("exact, median over %d service cells", len(svcP99)))
	for _, s := range []struct {
		name string
		v    uint64
	}{
		{"soc.busy_cycles", uint64(t.Busy)},
		{"soc.istall_cycles", uint64(t.IStall)},
		{"soc.priv_read_stall_cycles", uint64(t.PrivReadStall)},
		{"soc.shared_read_stall_cycles", uint64(t.SharedReadStall)},
		{"soc.write_stall_cycles", uint64(t.WriteStall)},
		{"soc.flush_stall_cycles", uint64(t.FlushStall)},
		{"soc.lock_wait_cycles", uint64(t.LockWait)},
		{"soc.copy_stall_cycles", uint64(t.CopyStall)},
		{"lock.wait_cycles", comp.LockWaitCycles},
	} {
		rep.add(s.name, float64(s.v), "cycles", "exact, summed over cells")
	}
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"cache.dc_hits", comp.DCHits},
		{"cache.dc_misses", comp.DCMisses},
		{"cache.ic_misses", comp.ICMisses},
		{"cache.writebacks", comp.Writebacks},
		{"noc.messages", comp.NoCMessages},
		{"noc.bytes", comp.NoCBytes},
		{"noc.flit_hops", comp.FlitHops},
		{"noc.global_flit_hops", comp.GlobalHops},
		{"mem.word_reads", comp.WordReads},
		{"mem.word_writes", comp.WordWrites},
		{"mem.line_fills", comp.LineFills},
		{"mem.line_wbs", comp.LineWBs},
		{"lock.acquires", comp.LockAcquires},
		{"lock.handoffs", comp.LockHandoffs},
	} {
		rep.add(c.name, float64(c.v), "count", "exact, summed over cells")
	}
	ratio := 0.0
	if n := comp.DCHits + comp.DCMisses; n > 0 {
		ratio = float64(comp.DCHits) / float64(n)
	}
	rep.add("cache.dc_hit_ratio", ratio, "ratio", "exact")
	cellMs := durations(spans, "sweep.cell")
	rep.add("sweep.cell_p50_ms", median(cellMs), "ms", note)
	rep.add("sweep.cell_max_ms", percentile(cellMs, 100), "ms", note)
	idle := 1 - cellSum.Seconds()/(simWorkers*g.wall.Seconds())
	rep.add("sweep.idle_share", idle, "ratio", fmt.Sprintf("1 - cell time / (%d workers × %.3f s)", simWorkers, g.wall.Seconds()))
}
