package main

import (
	"fmt"
	"runtime"
	"time"

	"microadapt/internal/engine"
	"microadapt/internal/service"
)

// latencyLimit is the fixed limit goodput counts completions against.
const latencyLimit = 250 * time.Millisecond

type execFn func(q int) (*engine.Table, service.JobStats, error)

// closedExec is the public entry point the closed-loop workload drives.
func (e *env) closedExec() execFn {
	if e.w.kind == kindDist {
		return e.coord.Execute
	}
	return e.svc.Execute
}

// outcome is one timed request.
type outcome struct {
	q   int
	lat time.Duration
	ok  bool // answered without error and bit-exact
}

// runClosed drives the workload's queries round-robin from one client,
// in whole passes until the run has lasted cfg.seconds and at least the
// workload's offBestPasses have run, so every query has the same weight
// whatever the run length. off_best_pct covers the first offBestPasses
// passes only, which makes it repeat exactly at a fixed seed.
func runClosed(cfg config, e *env) (*result, error) {
	exec := e.closedExec()
	type done struct {
		q, pass int
		lat     time.Duration
		err     error
		tab     *engine.Table
	}
	var runs []done
	var passDur []time.Duration
	var adaptive, offBest int64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for pass := 0; pass < e.w.offBestPasses || time.Since(start) < cfg.seconds; pass++ {
		passStart := time.Now()
		for _, q := range e.w.queries {
			t0 := time.Now()
			tab, st, err := exec(q)
			runs = append(runs, done{q: q, pass: pass, lat: time.Since(t0), err: err, tab: tab})
			if pass < e.w.offBestPasses {
				adaptive += st.AdaptiveCalls
				offBest += st.OffBestCalls
			}
		}
		passDur = append(passDur, time.Since(passStart))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	// Correctness is checked after the timed region.
	res := newResult()
	segs := make([]segment, len(passDur))
	for i, d := range passDur {
		segs[i].dur = d
	}
	for _, r := range runs {
		ok := r.err == nil && tableDigest(r.tab) == e.truth[r.q]
		if !ok {
			res.fail(fmt.Sprintf("Q%02d: %s", r.q, mismatchReason(r.err)))
		}
		segs[r.pass].outs = append(segs[r.pass].outs, outcome{q: r.q, lat: r.lat, ok: ok})
	}
	res.attempted = len(runs)
	latencyMetrics(res, segs)
	res.set("off_best_pct", pct(offBest, adaptive))
	res.set("alloc_mb_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(len(runs)))
	res.note("closed loop: %d queries in %d passes over %.2fs", len(runs), len(passDur), elapsed.Seconds())
	return res, nil
}

func mismatchReason(err error) string {
	if err != nil {
		return err.Error()
	}
	return "result differs from the ground truth"
}

// segment is one pass of a closed loop.
type segment struct {
	outs []outcome
	dur  time.Duration
}

// latencyMetrics reports each time metric but the tail as the median
// over the run's passes of that metric computed on the pass alone, so
// that a burst of load from outside the benchmark moves one pass, not the
// result. The tail is a stall detector and covers the whole run instead:
// the geometric mean over queries of each query's p90. A pass runs each
// query once, so a pass's own p90 would be its third-slowest query, not a
// tail; over the run, each query's p90 has about a tenth of its samples
// beyond it (at least 10 over all queries), and a stall that hits one
// pass in five moves it.
func latencyMetrics(res *result, segs []segment) {
	per := map[string][]float64{}
	var all []outcome
	for _, s := range segs {
		all = append(all, s.outs...)
		var lats []float64
		perQuery := map[int][]float64{}
		good := 0
		for _, o := range s.outs {
			if !o.ok {
				continue
			}
			l := ms(o.lat)
			lats = append(lats, l)
			perQuery[o.q] = append(perQuery[o.q], l)
			if o.lat <= latencyLimit {
				good++
			}
		}
		if len(lats) == 0 {
			continue
		}
		var medians []float64
		for _, xs := range perQuery {
			medians = append(medians, median(xs))
		}
		per["throughput_qps"] = append(per["throughput_qps"], float64(len(lats))/s.dur.Seconds())
		per["goodput_qps"] = append(per["goodput_qps"], float64(good)/s.dur.Seconds())
		per["power_geomean_ms"] = append(per["power_geomean_ms"], geomean(medians))
		per["latency_p50_ms"] = append(per["latency_p50_ms"], percentile(lats, 50))
	}
	for name, xs := range per {
		res.set(name, median(xs))
	}
	res.set("latency_tail_ms", perQueryTail(all, 90))
	res.note("%d timed samples in %d passes", len(all), len(segs))
}

// perQueryTail is the geometric mean over queries of each query's p-th
// percentile latency among the correct outcomes.
func perQueryTail(outs []outcome, p float64) float64 {
	perQuery := map[int][]float64{}
	for _, o := range outs {
		if o.ok {
			perQuery[o.q] = append(perQuery[o.q], ms(o.lat))
		}
	}
	var tails []float64
	for _, xs := range perQuery {
		tails = append(tails, percentile(xs, p))
	}
	return geomean(tails)
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
