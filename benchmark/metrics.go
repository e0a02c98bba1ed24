package main

import (
	"math"
	"slices"
)

// metricDef declares one metric: BENCHMARK.json lists exactly these,
// and TestManifest holds the two together.
type metricDef struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // what compare lets it worsen by: a share of A's median, or, when absolute, a difference
	absolute   bool
}

// endToEndDefs are the metrics that carry a bound in BENCHMARK.json,
// reported by every workload from the bare run. Only what the builder
// can repeat is here:
// it is a shared 2-core virtual machine whose speed moves by a tenth to a
// quarter for half a minute at a time, ten runs of one commit spread
// (interquartile range over median) by up to 0.26 on every timing metric,
// and no estimator, window length or speed index tried removed that
// (README, "What the builder can repeat"). The counts repeat to a few
// parts in a thousand. setup_s is required by the contract.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "allocs_per_op", unit: "count", bound: 0.05},
	{name: "live_heap_mb", unit: "MB", bound: 0.25},
}

// timingDefs are the end-to-end timings, demoted for spread: both runs
// measure and print them (the traced run from its bare reference run)
// and BENCHMARK.json lists them without a bound. compare still judges
// them, against the bounds the issue gave them.
var timingDefs = []metricDef{
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.10},
	{name: "read_p50_us", unit: "us", bound: 0.10},
	{name: "read_p99_us", unit: "us", bound: 0.20},
	{name: "write_p50_us", unit: "us", bound: 0.10},
	{name: "write_p95_us", unit: "us", bound: 0.20},
	{name: "cpu_us_per_op", unit: "us", bound: 0.10},
}

// failRatioDef is failed ops over attempted ops, which both runs report.
// BENCHMARK.json cannot bound it (its bounds are shares of a median, and
// this median is 0 on three workloads); compare holds it to the issue's
// absolute bound. The counts also travel in the result line.
var failRatioDef = metricDef{name: "fail_ratio", unit: "ratio", bound: 0.001, absolute: true}

// comparedDefs are the rows of compare's table, all from the bare run.
var comparedDefs = append(append(endToEndDefs[:len(endToEndDefs):len(endToEndDefs)], timingDefs...), failRatioDef)

// perLayerDefs are what -trace 1 reports: the demoted metrics, then
// single layers' numbers from the traced run and the probes.
// BENCHMARK.json gives none of them a bound.
var perLayerDefs = append(append(timingDefs[:len(timingDefs):len(timingDefs)], failRatioDef), []metricDef{
	{name: "kernel.overhead_us_per_op", unit: "us"},
	{name: "kernel.handler_us_per_op", unit: "us"},
	{name: "kernel.dispatch_p50_us", unit: "us"},
	{name: "kernel.local_per_op", unit: "count"},
	{name: "kernel.remote_per_op", unit: "count"},
	{name: "kernel.served_per_op", unit: "count"},
	{name: "async.queue_wait_p50_us", unit: "us"},
	{name: "async.shed", unit: "count"},
	{name: "transport.frames_per_op", unit: "count"},
	{name: "transport.bytes_per_op", unit: "B"},
	{name: "transport.send_us_per_op", unit: "us"},
	{name: "transport.frames_per_flush", unit: "count", higher: true},
	{name: "transport.queue_drops", unit: "count"},
	{name: "locator.hit_ratio", unit: "ratio", higher: true},
	{name: "locator.broadcasts_per_op", unit: "count"},
	{name: "lifecycle.reincarnations_per_op", unit: "count"},
	{name: "lifecycle.evictions_per_op", unit: "count"},
	{name: "lifecycle.checkpoints_per_op", unit: "count"},
	{name: "lifecycle.checkpoint_bytes_per_op", unit: "B"},
	{name: "store.puts_per_op", unit: "count"},
	{name: "store.gets_per_op", unit: "count"},
	{name: "store.put_p50_us", unit: "us"},
	{name: "store.get_p50_us", unit: "us"},
	{name: "store.busy_frac", unit: "ratio"},
	{name: "store.write_amp", unit: "ratio"},
	{name: "efs.invokes_per_tx", unit: "count"},
	{name: "efs.commit_p50_us", unit: "us"},
	{name: "efs.conflict_ratio", unit: "ratio"},
	{name: "efs.history_len_max", unit: "count"},
	{name: "telemetry.overhead_frac", unit: "ratio"},

	{name: "rights.check_ns", unit: "ns"},
	{name: "kernel.invoke_floor_ns", unit: "ns"},
	{name: "kernel.invoke_floor_allocs", unit: "count"},
	{name: "msg.encode_ns", unit: "ns"},
	{name: "msg.decode_ns", unit: "ns"},
	{name: "msg.encode_allocs", unit: "count"},
	{name: "msg.decode_allocs", unit: "count"},
	{name: "msg.bytes_per_frame", unit: "B"},
	{name: "transport.tcp_rtt_us", unit: "us"},
	{name: "transport.tcp_frames_per_s", unit: "1/s", higher: true},
	{name: "segment.encode_ns_per_kb", unit: "ns"},
	{name: "segment.decode_ns_per_kb", unit: "ns"},
	{name: "segment.encode_allocs", unit: "count"},
	{name: "store.file_put_us", unit: "us"},
	{name: "store.file_get_us", unit: "us"},
	{name: "store.open_ms", unit: "ms"},
	{name: "lifecycle.checkpoint_us", unit: "us"},
	{name: "lifecycle.reincarnate_us", unit: "us"},
	{name: "locator.lookup_warm_ns", unit: "ns"},
}...)

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of the samples, in their unit.
func quantile(samples []uint32, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(rank, 0)])
}

// steadyQuantile is the median, over equal consecutive parts of the
// samples, of each part's q-quantile. The samples are split as far as
// leaves every part ten samples beyond the quantile, at most into
// `segments` parts. One stall of the machine then moves one part's
// figure, not the run's.
func steadyQuantile(samples []uint32, q float64) float64 {
	parts := int(float64(len(samples)) * (1 - q) / 10)
	parts = max(1, min(parts, segments))
	each := len(samples) / parts
	qs := make([]float64, 0, parts)
	for p := 0; p < parts; p++ {
		qs = append(qs, quantile(samples[p*each:(p+1)*each], q))
	}
	return median(qs)
}
