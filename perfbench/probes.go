package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"pmc/internal/cache"
	"pmc/internal/core"
	"pmc/internal/mem"
	"pmc/internal/noc"
	"pmc/internal/pmcd"
	"pmc/internal/rt"
	"pmc/internal/sim"
	"pmc/internal/soc"
	"pmc/internal/sweep"
	"pmc/internal/workloads"
)

// The layer probes time single public calls of one layer on fixed inputs,
// like the micro-benchmarks in the repository's bench_test.go, and report
// host ns and heap allocations per call. Allocation counts hardly depend
// on the machine, so they move only when the code does.

// probeTime is how long a probe measures at least.
const probeTime = 30 * time.Millisecond

// stopwatch times the measured part of one probe iteration batch and
// counts its heap allocations.
type stopwatch struct {
	t      time.Time
	m      uint64
	d      time.Duration
	allocs uint64
}

func (s *stopwatch) start() { s.m = mallocs(); s.t = time.Now() }
func (s *stopwatch) stop()  { s.d = time.Since(s.t); s.allocs = mallocs() - s.m }

// measure calls body with growing n until the timed part lasts probeTime,
// and returns ns and allocations per operation of the last call. body
// runs n operations between sw.start and sw.stop; set-up outside them is
// not counted.
func measure(body func(n int, sw *stopwatch) error) (nsPerOp, allocsPerOp float64, err error) {
	n := 1
	for {
		var sw stopwatch
		if err := body(n, &sw); err != nil {
			return 0, 0, err
		}
		if sw.d >= probeTime || n >= 1<<24 {
			return float64(sw.d.Nanoseconds()) / float64(n), float64(sw.allocs) / float64(n), nil
		}
		grow := 2 * probeTime.Seconds() / max(sw.d.Seconds(), 1e-9)
		n = int(float64(n) * min(max(grow, 2), 100))
	}
}

// probe is one layer probe: the metric names it reports ns and allocs
// under, the unit scale of its time metric and its body.
type probe struct {
	time, allocs string
	scale        float64 // ns per unit of the time metric
	unit         string
	body         func(n int, sw *stopwatch) error
}

func runProbes(e *env, rep *report) error {
	exec, reads, err := recordedExecution()
	if err != nil {
		return err
	}
	dir, err := e.tempDir("probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	body, err := probeBody()
	if err != nil {
		return err
	}
	probes := []probe{
		{"core.exec_ns", "core.exec_allocs", 1, "ns", coreExecProbe(exec)},
		{"core.clone_us", "core.clone_allocs", 1e3, "us", func(n int, sw *stopwatch) error {
			sw.start()
			for i := 0; i < n; i++ {
				exec.Clone()
			}
			sw.stop()
			return nil
		}},
		{"core.readable_values_us", "core.allocs_per_query", 1e3, "us", func(n int, sw *stopwatch) error {
			sw.start()
			for i := 0; i < n; i++ {
				exec.ReadableValues(reads[i%len(reads)])
			}
			sw.stop()
			return nil
		}},
		{"core.last_writes_us", "core.last_writes_allocs", 1e3, "us", func(n int, sw *stopwatch) error {
			sw.start()
			for i := 0; i < n; i++ {
				exec.LastWrites(reads[i%len(reads)])
			}
			sw.stop()
			return nil
		}},
		{"sim.event_ns", "sim.event_allocs", 1, "ns", simEventProbe},
		{"sim.proc_wait_ns", "sim.proc_wait_allocs", 1, "ns", simProcWaitProbe},
		{"soc.new_1024t_ms", "soc.new_1024t_allocs", 1e6, "ms", socNewProbe},
		{"cache.read32_hit_ns", "cache.read32_hit_allocs", 1, "ns", cacheProbe(false)},
		{"cache.read32_miss_ns", "cache.read32_miss_allocs", 1, "ns", cacheProbe(true)},
		{"noc.post_write_ns", "noc.post_write_allocs", 1, "ns", nocPostWriteProbe},
		{"mem.fill_line_ns", "mem.fill_line_allocs", 1, "ns", memFillLineProbe},
		{"lock.acquire_release_ns", "lock.acquire_release_allocs", 1, "ns", lockProbe},
		{"pmcd.fingerprint_us", "pmcd.fingerprint_allocs", 1e3, "us", fingerprintProbe},
		{"pmcd.store_get_mem_us", "pmcd.store_get_mem_allocs", 1e3, "us", storeGetProbe(dir, body, false)},
		{"pmcd.store_get_disk_us", "pmcd.store_get_disk_allocs", 1e3, "us", storeGetProbe(dir, body, true)},
		{"pmcd.store_put_us", "pmcd.store_put_allocs", 1e3, "us", storePutProbe(dir, body)},
	}
	for _, b := range simBackends {
		probes = append(probes, probe{"rt.read32_ns." + b, "rt.read32_allocs." + b, 1, "ns", rtReadProbe(b)})
	}
	for _, p := range probes {
		ns, allocs, err := measure(p.body)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.time, err)
		}
		rep.add(p.time, ns/p.scale, p.unit, "probe")
		rep.add(p.allocs, allocs, "count", "probe, heap allocations per call")
	}
	return nil
}

// recordedExecution is the core probes' fixed input: the model execution
// (about 1.4k operations) the recorder lowers from the CI-sized mfifo
// workload on swcc over 4 tiles, and the IDs of its read operations.
func recordedExecution() (*core.Execution, []int, error) {
	cfg := soc.DefaultConfig()
	cfg.Tiles = 4
	app, _ := workloads.Scaled("mfifo", true)
	_, rec, err := workloads.RunVerified(app, cfg, "swcc")
	if err == nil {
		err = rec.Err()
	}
	if err != nil {
		return nil, nil, err
	}
	var reads []int
	for _, op := range rec.Exec.Ops() {
		if op.Kind == core.KRead {
			reads = append(reads, op.ID)
		}
	}
	if len(reads) == 0 {
		return nil, nil, fmt.Errorf("recorded execution has no reads")
	}
	return rec.Exec, reads, nil
}

// coreExecProbe re-issues the recorded execution's operations into fresh
// executions: the cost of applying the Table I rules per operation.
func coreExecProbe(src *core.Execution) func(int, *stopwatch) error {
	var ops []*core.Op
	for _, op := range src.Ops() {
		if !op.IsInit {
			ops = append(ops, op)
		}
	}
	return func(n int, sw *stopwatch) error {
		var e *core.Execution
		sw.start()
		for i := 0; i < n; i++ {
			if i%len(ops) == 0 {
				e = core.NewExecution()
				for l := 0; l < src.NumLocs(); l++ {
					e.AddLoc(src.LocName(core.Loc(l)))
				}
			}
			op := ops[i%len(ops)]
			e.Exec(op.Kind, op.Proc, op.Loc, op.Val, op.Label)
		}
		sw.stop()
		return nil
	}
}

func simEventProbe(n int, sw *stopwatch) error {
	k := sim.New()
	left := n
	var tick func()
	tick = func() {
		if left--; left > 0 {
			k.Schedule(1, tick)
		}
	}
	k.Schedule(1, tick)
	sw.start()
	err := k.Run()
	sw.stop()
	return err
}

func simProcWaitProbe(n int, sw *stopwatch) error {
	k := sim.New()
	k.Spawn("probe", func(p *sim.Proc) {
		sw.start()
		for i := 0; i < n; i++ {
			p.Wait(1)
		}
		sw.stop()
	})
	return k.Run()
}

// kiloTileConfig is the simulate workload's kilotile system.
func kiloTileConfig() (soc.Config, error) {
	topo, err := noc.ParseTopology(simTopology)
	if err != nil {
		return soc.Config{}, err
	}
	cfg := soc.DefaultConfig()
	cfg.Tiles = bigTiles
	cfg.NoC.Topology = topo
	cfg.SDRAMBytes = max(cfg.SDRAMBytes, rt.MinSDRAMBytes(bigTiles))
	return cfg, nil
}

func socNewProbe(n int, sw *stopwatch) error {
	cfg, err := kiloTileConfig()
	if err != nil {
		return err
	}
	sw.start()
	for i := 0; i < n; i++ {
		if _, err := soc.New(cfg); err != nil {
			return err
		}
	}
	sw.stop()
	return nil
}

// cacheProbe reads through the default data cache geometry: the same
// word (hits), or consecutive lines of a region eight times the cache
// (every read misses and fills).
func cacheProbe(miss bool) func(int, *stopwatch) error {
	return func(n int, sw *stopwatch) error {
		cfg := soc.DefaultConfig().DCache
		ram := mem.NewRAM(0, 8*cfg.Size)
		c := cache.New(cfg, ram)
		c.Read32(0)
		sw.start()
		for i := 0; i < n; i++ {
			addr := mem.Addr(0)
			if miss {
				addr = mem.Addr((i * cfg.LineSize) % (8 * cfg.Size))
			}
			c.Read32(addr)
		}
		sw.stop()
		return nil
	}
}

// onSystem runs body as a simulated process on tile 0 of a fresh 4-tile
// system.
func onSystem(body func(sys *soc.System, p *sim.Proc)) error {
	cfg := soc.DefaultConfig()
	cfg.Tiles = 4
	sys, err := soc.New(cfg)
	if err != nil {
		return err
	}
	sys.K.Spawn("probe", func(p *sim.Proc) { body(sys, p) })
	return sys.Run()
}

// nocPostWriteProbe posts word writes from tile 0 to tile 1, pausing
// every 64 writes so deliveries drain and the event queue stays small.
func nocPostWriteProbe(n int, sw *stopwatch) error {
	return onSystem(func(sys *soc.System, p *sim.Proc) {
		data := make([]byte, 4)
		dst := soc.LocalAddr(1, 0)
		sw.start()
		for i := 0; i < n; i++ {
			sys.Net.PostWrite(0, 1, dst, data)
			if i%64 == 63 {
				p.Wait(10_000)
			}
		}
		sw.stop()
	})
}

func memFillLineProbe(n int, sw *stopwatch) error {
	return onSystem(func(sys *soc.System, p *sim.Proc) {
		line := make([]byte, sys.Cfg.DCache.LineSize)
		sw.start()
		for i := 0; i < n; i++ {
			addr := soc.SDRAMBase + mem.Addr((i*len(line))%(1<<20))
			sys.SDRAM.FillLine(p, addr, line)
		}
		sw.stop()
	})
}

func lockProbe(n int, sw *stopwatch) error {
	return onSystem(func(sys *soc.System, p *sim.Proc) {
		l := sys.DLock
		sw.start()
		for i := 0; i < n; i++ {
			l.Acquire(p, 0, 1)
			l.Release(p, 0, 1)
		}
		sw.stop()
	})
}

// rtReadProbe reads one word of a shared object inside a read-only scope
// through the named backend, on tile 0 of a 4-tile clustered system.
func rtReadProbe(backend string) func(int, *stopwatch) error {
	return func(n int, sw *stopwatch) error {
		b, err := rt.ByName(backend)
		if err != nil {
			return err
		}
		cfg := soc.DefaultConfig()
		cfg.Tiles = 4
		cfg.NoC.Topology = noc.ClusterTopo(2, noc.KindRing)
		sys, err := soc.New(cfg)
		if err != nil {
			return err
		}
		r := rt.New(sys, b)
		o := r.Alloc("probe", 64)
		r.Spawn(0, "probe", func(c *rt.Ctx) {
			c.EntryRO(o)
			sw.start()
			for i := 0; i < n; i++ {
				c.Read32(o, 4*(i%16))
			}
			sw.stop()
			c.ExitRO(o)
		})
		return r.Run()
	}
}

// probeSweepJob is a representative job spec: one app's small sweep.
var probeSweepJob = pmcd.JobSpec{Sweep: &pmcd.SweepJob{Apps: []string{"radiosity"}, Backends: simBackends, Tiles: []int{4, 8, 16}, Small: true}}

func fingerprintProbe(n int, sw *stopwatch) error {
	sw.start()
	for i := 0; i < n; i++ {
		if _, err := pmcd.Fingerprint(probeSweepJob, serveCodeVersion); err != nil {
			return err
		}
	}
	sw.stop()
	return nil
}

// probeBody is a stored result of realistic size: the body of a small
// sweep job.
func probeBody() ([]byte, error) {
	spec := sweep.Spec{Apps: []string{"radiosity"}, Backends: simBackends, Tiles: []int{4}, Workers: 1,
		Make: func(c sweep.Cell) (workloads.App, error) {
			app, _ := workloads.Scaled(c.App, true)
			return app, nil
		}}
	table, err := sweep.Run(spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func probeKey(i int) string { return fmt.Sprintf("%064x", i+1) }

// storeGetProbe reads stored results back: from the memory tier, or —
// with a one-entry memory tier and two keys read alternately — always
// from disk.
func storeGetProbe(dir string, body []byte, disk bool) func(int, *stopwatch) error {
	return func(n int, sw *stopwatch) error {
		sub, err := os.MkdirTemp(dir, "get-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(sub)
		memEntries := 0 // the default LRU size
		if disk {
			memEntries = 1
		}
		s, err := pmcd.Open(sub, memEntries)
		if err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if err := s.Put(probeKey(i), body); err != nil {
				return err
			}
		}
		sw.start()
		for i := 0; i < n; i++ {
			if _, ok, err := s.Get(probeKey(i % 2)); err != nil || !ok {
				return fmt.Errorf("get: ok=%v err=%v", ok, err)
			}
		}
		sw.stop()
		return nil
	}
}

func storePutProbe(dir string, body []byte) func(int, *stopwatch) error {
	return func(n int, sw *stopwatch) error {
		sub, err := os.MkdirTemp(dir, "put-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(sub)
		s, err := pmcd.Open(sub, 0)
		if err != nil {
			return err
		}
		sw.start()
		for i := 0; i < n; i++ {
			if err := s.Put(probeKey(i), body); err != nil {
				return err
			}
		}
		sw.stop()
		return nil
	}
}
