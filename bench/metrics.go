package main

import "strings"

// This file is the metric catalogue: every metric the benchmark prints,
// with its unit, family, direction and bound. BENCHMARK.json repeats the
// names, units, directions and bounds (a test holds the two together); the
// family and the end-to-end metric a layer metric is expected to move are
// kept here and in the README because BENCHMARK.json has no field for them.
//
// Families: "host" is wall-clock or memory cost of running the simulator on
// this machine, and is noisy; "sim" is a statistic of the modelled SSD in
// virtual time, and repeats bit for bit for one seed. A sim latency says so
// in its unit (virtual_us): it is computed, not measured, it lands on the
// lattice of the flash timings, and it may well read the same on ten seeds
// (P99 on randread_cold is 439.35 for 24 seeds of 30).

type metricDef struct {
	name   string
	unit   string
	family string
	better string
	bound  float64 // end-to-end only
	moves  string  // per-layer only: the end-to-end metric it should move
}

// The bounds are what a later change may cost before it is a regression,
// as a share of the parent's median. They are also the room the metric's
// spread between ten runs with ten seeds has to fit into.
//
// Absolute host throughput is what a user of the simulator sees and what
// an engine, stats, nand or allocator change moves in all five schemes at
// once, so it is bounded although it is the noisiest figure here: on the
// 2-core shared VM this was built on its quartile spread over ten runs is
// 3 % to 12 % (21 % on a bad afternoon) and two sets of runs an hour apart
// differed by up to 24 %, whatever is taken over a run's rounds — median,
// lower quartile or fastest — and with or without a collection before the
// timed span: the machine itself drifts over minutes, because the device's
// 5 MB of metadata lives in the L3 cache the neighbours share. The bound is
// the widest a bound may be; compare marks a metric "unresolved" when a
// side's spread exceeds it. <s>.host_rel_speed among the per-layer metrics
// is the figure that drift cancels in, an aid for reading an unresolved one.
//
// The sim metrics are exact for one seed, so compare holds them to 0
// between two sets over the same seeds. Their bounds here cannot be 0: the
// benchmark's spread is taken over ten seeds, and between seeds the 200
// group collections of a randwrite_gc phase move LearnedFTL's IOPS by 2.4 %
// and its flash operations per page by 1.3 %, and the 52 of a mixed_open
// phase its P99 (queue wait behind the longest of them) by 8.5 %. Each
// bound is three times the widest spread seen.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", family: "host", better: "lower", bound: 0.25},
	{name: "host_kpages_per_s.dftl", unit: "kpages/s", family: "host", better: "higher", bound: 0.25},
	{name: "host_kpages_per_s.tpftl", unit: "kpages/s", family: "host", better: "higher", bound: 0.25},
	{name: "host_kpages_per_s.leaftl", unit: "kpages/s", family: "host", better: "higher", bound: 0.25},
	{name: "host_kpages_per_s.learnedftl", unit: "kpages/s", family: "host", better: "higher", bound: 0.25},
	{name: "host_kpages_per_s.ideal", unit: "kpages/s", family: "host", better: "higher", bound: 0.25},
	{name: "host_kpages_per_s.all", unit: "kpages/s", family: "host", better: "higher", bound: 0.25},
	{name: "live_heap_mib", unit: "MiB", family: "host", better: "lower", bound: 0.05},
	{name: "sim_kiops.learnedftl", unit: "kIOPS", family: "sim", better: "higher", bound: 0.08},
	{name: "sim_p99_us.learnedftl", unit: "virtual_us", family: "sim", better: "lower", bound: 0.25},
	{name: "sim_flash_ops_per_page.learnedftl", unit: "ops/page", family: "sim", better: "lower", bound: 0.05},
}

// perSchemeDefs are emitted once per scheme as "<scheme>.<name>".
var perSchemeDefs = []metricDef{
	{name: "host_rel_speed", unit: "ratio", family: "host", better: "higher", moves: "none (an aid for reading host_kpages_per_s.<s> through machine drift)"},
	{name: "read_ns_per_page", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.<s>"},
	{name: "write_ns_per_page", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.<s>, setup_s"},
	{name: "alloc_bytes_per_kpage", unit: "B", family: "host", better: "lower", moves: "host_kpages_per_s.<s>"},
	{name: "host_ns_per_flash_op", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.<s>"},
	{name: "sim_kiops", unit: "kIOPS", family: "sim", better: "higher", moves: "sim_kiops.learnedftl"},
	{name: "sim_p99_us", unit: "virtual_us", family: "sim", better: "lower", moves: "sim_p99_us.learnedftl"},
	{name: "sim_double_read_share", unit: "ratio", family: "sim", better: "lower", moves: "sim_p99_us.learnedftl, sim_kiops.learnedftl"},
	{name: "sim_cmt_hit_ratio", unit: "ratio", family: "sim", better: "higher", moves: "sim_flash_ops_per_page.learnedftl"},
	{name: "sim_model_hit_ratio", unit: "ratio", family: "sim", better: "higher", moves: "sim_flash_ops_per_page.learnedftl"},
	{name: "sim_write_amp", unit: "ratio", family: "sim", better: "lower", moves: "sim_flash_ops_per_page.learnedftl"},
	{name: "sim_gc_count", unit: "count", family: "sim", better: "lower", moves: "sim_p99_us.learnedftl"},
	{name: "sim_gc_moved_per_gc", unit: "pages", family: "sim", better: "lower", moves: "sim_flash_ops_per_page.learnedftl"},
	{name: "sim_gc_busy_share", unit: "ratio", family: "sim", better: "lower", moves: "sim_p99_us.learnedftl"},
	{name: "sim_flash_reads_per_page", unit: "ops/page", family: "sim", better: "lower", moves: "sim_flash_ops_per_page.learnedftl"},
	{name: "sim_flash_programs_per_page", unit: "ops/page", family: "sim", better: "lower", moves: "sim_flash_ops_per_page.learnedftl"},
}

var layerDefs = []metricDef{
	{name: "sim.self_ns_per_req", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.all"},
	{name: "sim.shard2_speedup", unit: "ratio", family: "host", better: "higher", moves: "none (sim.RunSharded is not on a workload's path)"},
	{name: "workload.next_ns_per_req", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.all"},
	{name: "stats.record_ns", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.all"},
	{name: "stats.report_ms", unit: "ms", family: "host", better: "lower", moves: "none (outside the timed phase)"},
	{name: "nand.read_ns", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.all"},
	{name: "nand.program_ns", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.all, setup_s"},
	{name: "nand.erase_ns_per_page", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.all"},
	{name: "mapping.cmt_hit_ns", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.dftl"},
	{name: "mapping.cmt_miss_evict_ns", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.dftl"},
	{name: "learned.inplace_predict_ns", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.learnedftl"},
	{name: "learned.inplace_train_ns", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.learnedftl"},
	{name: "learned.lsmt_lookup_ns", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.leaftl"},
	{name: "learned.plr_fit_ns_per_point", unit: "ns", family: "host", better: "lower", moves: "host_kpages_per_s.leaftl"},
	{name: "persist.snapshot_mb_per_s", unit: "MB/s", family: "host", better: "higher", moves: "setup_s"},
	{name: "persist.restore_mb_per_s", unit: "MB/s", family: "host", better: "higher", moves: "setup_s"},
	{name: "persist.snapshot_bytes_per_page", unit: "B", family: "host", better: "lower", moves: "setup_s, live_heap_mib"},
	{name: "persist.recover_ms", unit: "ms", family: "host", better: "lower", moves: "none (outside the timed phase)"},
	{name: "persist.sim_mount_ms", unit: "virtual_ms", family: "sim", better: "lower", moves: "none (outside the timed phase)"},
	{name: "obs.attached_slowdown", unit: "ratio", family: "host", better: "lower", moves: "none (tracer is detached on every workload)"},
	{name: "sweep.workers2_speedup", unit: "ratio", family: "host", better: "higher", moves: "none (one goroutine on every workload)"},
	{name: "host.trace_overhead_ratio", unit: "ratio", family: "host", better: "lower", moves: "none (end-to-end runs are untraced)"},
	{name: "host.span_cost_ns", unit: "ns", family: "host", better: "lower", moves: "none (end-to-end runs are untraced)"},
}

// perLayer returns the whole per-layer catalogue in print order.
func perLayer() []metricDef {
	var out []metricDef
	for _, s := range schemes {
		for _, d := range perSchemeDefs {
			d.name = s.key + "." + d.name
			d.moves = strings.ReplaceAll(d.moves, "<s>", s.key)
			out = append(out, d)
		}
	}
	return append(out, layerDefs...)
}

// catalogue returns the metrics one run emits.
func catalogue(traced bool) []metricDef {
	if traced {
		return perLayer()
	}
	return endToEnd
}
