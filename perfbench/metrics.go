package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one reported metric. The end-to-end set is what a timed
// run prints (--trace 0), the per-layer set what a traced run prints
// (--trace 1). BENCHMARK.json lists the same names, units and directions;
// the smoke test checks the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move.
	Moves string
}

var endToEnd = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "power_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "q/s", Better: "higher", Bound: 0.25},
	{Name: "goodput_qps", Unit: "q/s", Better: "higher", Bound: 0.25},
	{Name: "success_pct", Unit: "%", Better: "higher", Bound: 0.001},
	{Name: "off_best_pct", Unit: "%", Better: "lower", Bound: 0.2},
	{Name: "alloc_mb_per_query", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var perLayer = []metricDef{
	{Name: "tpch.generate_s", Unit: "s", Better: "lower", Moves: "setup_s, all workloads"},
	{Name: "tpch.plan_build_us", Unit: "us", Better: "lower", Moves: "power_geomean_ms, tpch-local"},
	{Name: "core.session_new_us", Unit: "us", Better: "lower", Moves: "throughput_qps, dist-n2 and tpch-local"},
	{Name: "core.session_alloc_kb", Unit: "KB", Better: "lower", Moves: "alloc_mb_per_query, dist-n2 and tpch-local"},
	{Name: "core.adaptive_calls_per_query", Unit: "count", Better: "lower", Moves: "off_best_pct, all workloads"},
	{Name: "primitive.select_ns_per_tuple.branch", Unit: "ns", Better: "lower", Moves: "power_geomean_ms, tpch-local"},
	{Name: "primitive.select_ns_per_tuple.nobranch", Unit: "ns", Better: "lower", Moves: "power_geomean_ms, tpch-local"},
	{Name: "primitive.map_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "power_geomean_ms, tpch-local"},
	{Name: "primitive.hash_ns_per_tuple", Unit: "ns", Better: "lower", Moves: "power_geomean_ms, tpch-local"},
	{Name: "primitive.prim_gcycles", Unit: "Gcycles", Better: "lower", Moves: "none: deterministic guard that must not move"},
	{Name: "primitive.virtual_real_agree_pct", Unit: "%", Better: "higher", Moves: "none: diagnostic"},
	{Name: "plan.bind_us", Unit: "us", Better: "lower", Moves: "throughput_qps, tpch-local"},
	{Name: "plan.exec_ms", Unit: "ms", Better: "lower", Moves: "throughput_qps, tpch-local"},
	{Name: "plan.fragment_sites_us", Unit: "us", Better: "lower", Moves: "power_geomean_ms, dist-n2"},
	{Name: "plan.fragment_encode_us", Unit: "us", Better: "lower", Moves: "power_geomean_ms, dist-n2"},
	{Name: "plan.fold_us", Unit: "us", Better: "lower", Moves: "power_geomean_ms, dist-n2"},
	{Name: "plan.residual_ms", Unit: "ms", Better: "lower", Moves: "power_geomean_ms, dist-n2"},
	{Name: "plan.wire_decode_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms, dist-n2"},
	{Name: "service.harvest_us", Unit: "us", Better: "lower", Moves: "throughput_qps, tpch-local"},
	{Name: "service.cache_hit_pct", Unit: "%", Better: "higher", Moves: "off_best_pct, all workloads"},
	{Name: "server.fingerprint_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms, tpch-local and dist-n2"},
	{Name: "server.table_encode_us", Unit: "us", Better: "lower", Moves: "power_geomean_ms, dist-n2"},
	{Name: "server.table_decode_us", Unit: "us", Better: "lower", Moves: "power_geomean_ms, dist-n2"},
	{Name: "server.wire_bytes_per_row", Unit: "B", Better: "lower", Moves: "power_geomean_ms, dist-n2"},
	{Name: "server.stream_ttfc_us", Unit: "us", Better: "lower", Moves: "power_geomean_ms, dist-n2"},
	{Name: "server.stream_total_us", Unit: "us", Better: "lower", Moves: "power_geomean_ms, dist-n2"},
	{Name: "server.queue_wait_p50_us", Unit: "us", Better: "lower", Moves: "latency_tail_ms and goodput_qps, dist-n2"},
	{Name: "server.queue_wait_p99_us", Unit: "us", Better: "lower", Moves: "latency_tail_ms and goodput_qps, dist-n2"},
	{Name: "server.shed", Unit: "count", Better: "lower", Moves: "success_pct, dist-n2"},
	{Name: "server.expired", Unit: "count", Better: "lower", Moves: "success_pct, dist-n2"},
	{Name: "server.exec_p50_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms, dist-n2"},
	{Name: "server.overhead_p50_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms, dist-n2"},
	{Name: "dist.fragments_per_query", Unit: "count", Better: "lower", Moves: "latency_tail_ms, dist-n2"},
	{Name: "dist.fragment_p50_us", Unit: "us", Better: "lower", Moves: "latency_tail_ms, dist-n2"},
	{Name: "dist.fragment_p99_us", Unit: "us", Better: "lower", Moves: "latency_tail_ms, dist-n2"},
	{Name: "dist.fallback_pct", Unit: "%", Better: "lower", Moves: "success_pct, dist-n2"},
	{Name: "runtime.gc_cycles_per_query", Unit: "count", Better: "lower", Moves: "alloc_mb_per_query and every latency metric, all workloads"},
	{Name: "bench.generator_lag_p99_ms", Unit: "ms", Better: "lower", Moves: "none: benchmark diagnostic"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none: benchmark diagnostic"},
}

// unitOf looks a metric's unit up in either set.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// percentile is the nearest-rank p-th percentile of xs (xs is sorted in
// place). It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
