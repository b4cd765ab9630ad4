package main

// endToEndMetrics are the metrics an untraced run reports, in the order of
// BENCHMARK.json's end_to_end list.
var endToEndMetrics = []string{
	"setup_s",
	"programs_per_s",
	"grid_s",
	"sim_cycles_geomean",
	"jobs_per_s",
	"job_p50_ms",
	"job_p99_ms",
	"peak_rss_mb",
}

// perLayerMetrics are the metrics a traced run reports, in the order of
// BENCHMARK.json's per_layer list.
var perLayerMetrics = []string{
	// The model and its exploration (verify).
	"core.exec_ns", "core.exec_allocs",
	"core.clone_us", "core.clone_allocs",
	"core.readable_values_us", "core.allocs_per_query",
	"core.last_writes_us", "core.last_writes_allocs",
	"litmus.explore_ms", "litmus.states", "litmus.us_per_state",
	"fuzz.generate_ms", "fuzz.program_p50_ms", "fuzz.program_p99_ms",
	"conform.check_ms", "conform.sim_runs",
	"rt.recorded_run_ms", "rt.recorded_ops",
	"spec.check_trace_ms",
	// The simulator substrate (simulate).
	"sim.event_ns", "sim.event_allocs",
	"sim.proc_wait_ns", "sim.proc_wait_allocs",
	"sim.instrs", "sim.host_ns_per_instr",
	"soc.build_ms", "workloads.setup_ms", "rt.run_ms",
	"soc.new_1024t_ms", "soc.new_1024t_allocs",
	"rt.read32_ns.nocc", "rt.read32_allocs.nocc",
	"rt.read32_ns.swcc", "rt.read32_allocs.swcc",
	"rt.read32_ns.dsm", "rt.read32_allocs.dsm",
	"rt.read32_ns.spm", "rt.read32_allocs.spm",
	"rt.read32_ns.cdsm", "rt.read32_allocs.cdsm",
	"rt.read32_ns.cspm", "rt.read32_allocs.cspm",
	"rt.read32_ns.adaptive", "rt.read32_allocs.adaptive",
	"workloads.service_p99_cycles",
	"soc.busy_cycles", "soc.istall_cycles",
	"soc.priv_read_stall_cycles", "soc.shared_read_stall_cycles",
	"soc.write_stall_cycles", "soc.flush_stall_cycles",
	"soc.lock_wait_cycles", "soc.copy_stall_cycles",
	"cache.dc_hits", "cache.dc_misses", "cache.ic_misses", "cache.writebacks", "cache.dc_hit_ratio",
	"noc.messages", "noc.bytes", "noc.flit_hops", "noc.global_flit_hops",
	"mem.word_reads", "mem.word_writes", "mem.line_fills", "mem.line_wbs",
	"lock.acquires", "lock.handoffs", "lock.wait_cycles",
	"cache.read32_hit_ns", "cache.read32_hit_allocs",
	"cache.read32_miss_ns", "cache.read32_miss_allocs",
	"noc.post_write_ns", "noc.post_write_allocs",
	"mem.fill_line_ns", "mem.fill_line_allocs",
	"lock.acquire_release_ns", "lock.acquire_release_allocs",
	"sweep.cell_p50_ms", "sweep.cell_max_ms", "sweep.idle_share",
	// The job service (serve).
	"pmcd.submit_p50_ms", "pmcd.submit_p99_ms",
	"pmcd.queue_wait_p50_ms", "pmcd.queue_wait_p99_ms",
	"pmcd.run_p50_ms", "pmcd.run_p99_ms",
	"pmcd.result_p50_ms", "pmcd.result_p99_ms",
	"pmcd.hit_p99_ms", "pmcd.hit_ratio",
	"pmcd.dedups", "pmcd.simulations",
	"pmcd.store_mem_hits", "pmcd.store_disk_hits", "pmcd.store_misses", "pmcd.store_puts",
	"pmcd.rejected",
	"pmcd.fingerprint_us", "pmcd.fingerprint_allocs",
	"pmcd.store_get_mem_us", "pmcd.store_get_mem_allocs",
	"pmcd.store_get_disk_us", "pmcd.store_get_disk_allocs",
	"pmcd.store_put_us", "pmcd.store_put_allocs",
	// The named workload's process and the tracing itself.
	"go.alloc_mb", "go.mallocs", "go.gc_cpu_share",
	"trace.coverage", "trace.overhead_share",
}
