package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/plan"
	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/tpch"
)

// tracedPasses is how many untraced/traced pass pairs each spine replays.
const tracedPasses = 2

// traceRun is the traced run: it replays the local and distributed
// spines, recording spans around every call into a layer's public
// functions. The end-to-end metrics are never taken from it.
type traceRun struct {
	cfg  config
	e    *env
	tr   *tracer
	res  *result
	wire *wireCapture

	// Local spine, first traced pass.
	primCycles float64
	adaptive   int64
	localQs    int

	// Dist spine, first traced pass.
	wireBytes, wireRows int

	mu     sync.Mutex // guards the stream samples below
	ttfc   []float64  // time to first chunk, us
	execMS []float64  // shard execution from the stream trailer, ms
	overMS []float64  // stream round trip minus shard execution, ms
}

// spineStats compares untraced and traced passes over the same queries.
type spineStats struct {
	untraced, traced time.Duration
	queries          int    // queries of the untraced passes
	gcs              uint32 // GC cycles during the untraced passes
	gaps             []float64
	seeded, cold     int64 // warm-start counters over all passes
}

func (s spineStats) overheadPct() float64 {
	return 100 * float64(s.traced-s.untraced) / float64(s.untraced)
}

// untracedPass runs the queries through exec without tracing and returns
// each result's digest, checked against the ground truth.
func (t *traceRun) untracedPass(st *spineStats, exec execFn) map[int]digest {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tabs := make(map[int]*engine.Table, len(t.e.w.queries))
	var last time.Time
	for _, q := range t.e.w.queries {
		t0 := time.Now()
		if !last.IsZero() {
			st.gaps = append(st.gaps, ms(t0.Sub(last)))
		}
		tab, _, err := exec(q)
		last = time.Now()
		st.untraced += last.Sub(t0)
		t.res.attempted++
		if err != nil {
			t.res.fail(fmt.Sprintf("untraced Q%02d: %v", q, err))
			continue
		}
		tabs[q] = tab
	}
	runtime.ReadMemStats(&m1)
	st.gcs += m1.NumGC - m0.NumGC
	st.queries += len(t.e.w.queries)
	ref := make(map[int]digest, len(tabs))
	for q, tab := range tabs {
		ref[q] = tableDigest(tab)
		if ref[q] != t.e.truth[q] {
			t.res.fail(fmt.Sprintf("untraced Q%02d: result differs from the ground truth", q))
		}
	}
	return ref
}

// passPair runs one untraced pass through exec and one traced replay
// pass, alternating which goes first so that neither always runs in the
// state the other leaves behind, then applies the replay guard. Pass 0
// runs untraced first at every seed, so its traced half is deterministic.
func (t *traceRun) passPair(st *spineStats, spine string, p int, exec execFn,
	replay func(q int, first bool) (*engine.Table, time.Duration, error)) {
	type replayed struct {
		tab *engine.Table
		err error
	}
	got := make(map[int]replayed, len(t.e.w.queries))
	tracedPass := func() {
		for _, q := range t.e.w.queries {
			tab, d, err := replay(q, p == 0)
			st.traced += d
			got[q] = replayed{tab, err}
		}
	}
	var ref map[int]digest
	if p%2 == 0 {
		ref = t.untracedPass(st, exec)
		tracedPass()
	} else {
		tracedPass()
		ref = t.untracedPass(st, exec)
	}
	for _, q := range t.e.w.queries {
		t.guard(spine, q, got[q].tab, got[q].err, ref)
	}
}

// guard is the replay guard: a traced replay must produce the digest of
// the untraced run of the same query, so the replay cannot drift from
// the public entry point it rebuilds.
func (t *traceRun) guard(spine string, q int, tab *engine.Table, err error, ref map[int]digest) {
	t.res.attempted++
	switch {
	case err != nil:
		t.res.fail(fmt.Sprintf("%s replay Q%02d: %v", spine, q, err))
	case tableDigest(tab) != ref[q]:
		t.res.fail(fmt.Sprintf("%s replay Q%02d: digest differs from the untraced run", spine, q))
	}
}

// localSpine replays Service.Execute as NewSession, Spec.Plan, Bind,
// Finish and Cache().Harvest.
func (t *traceRun) localSpine() spineStats {
	var st spineStats
	svc := t.e.svc
	s0, c0 := svc.SeededInstances()
	for p := 0; p < tracedPasses; p++ {
		t.passPair(&st, "local", p, svc.Execute, t.localQuery)
	}
	s1, c1 := svc.SeededInstances()
	st.seeded, st.cold = s1-s0, c1-c0
	return st
}

func (t *traceRun) localQuery(q int, first bool) (*engine.Table, time.Duration, error) {
	tr, svc, sp := t.tr, t.e.svc, tpch.Query(q)
	id := tr.newTrace()
	root := tr.begin(id, -1, "local", "query", q)
	var s *core.Session
	tr.do(id, root, "local", "core.session_new", q, func() { s = svc.NewSession() })
	var b *plan.Builder
	tr.do(id, root, "local", "tpch.plan_build", q, func() { b = sp.Plan(svc.DB()) })
	var ex *plan.Exec
	tr.do(id, root, "local", "plan.bind", q, func() { ex = b.Bind(s) })
	var tab *engine.Table
	var err error
	tr.do(id, root, "local", "plan.exec", q, func() { tab, err = sp.Finish(b, ex) })
	if err == nil {
		tr.do(id, root, "local", "service.harvest", q, func() { svc.Cache().Harvest(s) })
	}
	d := tr.end(root)
	if err != nil {
		return nil, d, err
	}
	// What the server adds to every answer, outside the replayed call.
	tr.do(id, root, "local", "server.fingerprint", q, func() { _ = server.Fingerprint(tab) })
	if first {
		t.primCycles += s.Ctx.PrimCycles
		a, _ := core.AdaptationCost(s.AllInstances())
		da, _ := core.DecisionAdaptationCost(s.AllDecisions())
		t.adaptive += a + da
		t.localQs++
	}
	return tab, d, err
}

// distSpine replays Coordinator.Execute from public calls: FragmentSites,
// MarshalPlan and EncodePlanRequest, Client.PlanStreamEncoded per shard
// with DecodeTable and AddChunk, Result, and the residual Bind, Preset
// and Finish.
func (t *traceRun) distSpine() (spineStats, error) {
	var st spineStats
	rsvc := service.New(t.e.db.SchemaOnly(), serviceConfig(t.cfg.seed))
	if err := rsvc.Err(); err != nil {
		return st, err
	}
	// Start the replay's residual service from the coordinator's
	// knowledge, as a coordinator restarted with the same cache would.
	rsvc.Cache().Import(t.e.coord.Cache().Export())
	var clients []*server.Client
	for _, url := range t.e.urls {
		clients = append(clients, server.NewClient(url).WithBinaryWire(true))
	}
	seeded0, cold0 := t.fleetSeeded(rsvc)
	f0 := t.e.coord.Fleet()
	replay := func(q int, first bool) (*engine.Table, time.Duration, error) {
		return t.distQuery(rsvc, clients, q, first)
	}
	for p := 0; p < tracedPasses; p++ {
		t.passPair(&st, "dist", p, t.e.coord.Execute, replay)
	}
	f1 := t.e.coord.Fleet()
	seeded1, cold1 := t.fleetSeeded(rsvc)
	st.seeded, st.cold = seeded1-seeded0, cold1-cold0
	sent := f1.FragmentsSent - f0.FragmentsSent
	t.res.set("dist.fragments_per_query", float64(sent)/float64(st.queries))
	t.res.set("dist.fallback_pct", pct(f1.FragmentAttempts-f0.FragmentAttempts-sent, sent))
	t.res.set("dist.fragment_p50_us", f1.FragmentP50US)
	t.res.set("dist.fragment_p99_us", f1.FragmentP99US)
	return st, nil
}

// fleetSeeded sums the warm-start counters of the coordinator, the
// replay's residual service and every shard.
func (t *traceRun) fleetSeeded(rsvc *service.Service) (seeded, cold int64) {
	seeded, cold = t.e.coord.SeededInstances()
	s, c := rsvc.SeededInstances()
	seeded, cold = seeded+s, cold+c
	for _, sh := range t.e.shards {
		m := sh.Server.Metrics()
		seeded, cold = seeded+m.CacheSeededInsts, cold+m.CacheColdInsts
	}
	return seeded, cold
}

func (t *traceRun) distQuery(rsvc *service.Service, clients []*server.Client, q int, first bool) (*engine.Table, time.Duration, error) {
	tr, sp := t.tr, tpch.Query(q)
	id := tr.newTrace()
	root := tr.begin(id, -1, "dist", "query", q)
	tab, sites, err := t.distSpans(rsvc, clients, sp, id, root)
	d := tr.end(root)
	if err == nil {
		// What the shards and the wire add, outside the replayed call.
		err = t.wireProbe(sites, id, root, q, first)
	}
	return tab, d, err
}

func (t *traceRun) distSpans(rsvc *service.Service, clients []*server.Client, sp tpch.Spec, id, root int) (*engine.Table, []siteWire, error) {
	tr, q := t.tr, sp.ID
	var b *plan.Builder
	tr.do(id, root, "dist", "tpch.plan_build", q, func() { b = sp.Plan(rsvc.DB()) })
	var sites []*plan.FragmentSite
	tr.do(id, root, "dist", "plan.fragment_sites", q, func() { sites = plan.FragmentSites(b) })
	merged := make([]*engine.Table, len(sites))
	wires := make([]siteWire, len(sites))
	for si, site := range sites {
		var err error
		if merged[si], wires[si], err = t.distSite(clients, site, id, root, q); err != nil {
			return nil, nil, err
		}
	}
	res := tr.begin(id, root, "dist", "plan.residual", q)
	var s *core.Session
	tr.do(id, res, "dist", "core.session_new", q, func() { s = rsvc.NewSession() })
	var ex *plan.Exec
	tr.do(id, res, "dist", "plan.bind", q, func() { ex = b.Bind(s) })
	var err error
	tr.do(id, res, "dist", "plan.preset", q, func() {
		for si, site := range sites {
			if err = ex.Preset(site.Node, merged[si]); err != nil {
				return
			}
		}
	})
	var tab *engine.Table
	if err == nil {
		tr.do(id, res, "dist", "plan.exec", q, func() { tab, err = sp.Finish(b, ex) })
	}
	tr.end(res)
	if err != nil {
		return nil, nil, err
	}
	tr.do(id, root, "dist", "service.harvest", q, func() { rsvc.Cache().Harvest(s) })
	return tab, wires, nil
}

// distSite ships one fragment site to every shard and folds the streamed
// partials. It returns the fragment and the stream bodies as they
// arrived, for the wire probe.
func (t *traceRun) distSite(clients []*server.Client, site *plan.FragmentSite, id, root, q int) (*engine.Table, siteWire, error) {
	tr := t.tr
	sid := tr.begin(id, root, "dist", "site", q)
	defer tr.end(sid)
	sw := siteWire{rows: make([]int, len(clients))}
	var body []byte
	var err error
	tr.do(id, sid, "dist", "plan.fragment_encode", q, func() {
		if sw.plan, err = plan.MarshalPlan(site.Fragment); err == nil {
			body, err = server.EncodePlanRequest(server.PlanRequest{Plan: sw.plan, TimeoutMS: 60_000, IncludeResult: true})
		}
	})
	if err != nil {
		return nil, sw, err
	}
	acc := site.NewAccumulator(len(clients))
	errs := make([]error, len(clients))
	t.wire.arm()
	var wg sync.WaitGroup
	for shi, c := range clients {
		wg.Add(1)
		go func(shi int, c *server.Client) {
			defer wg.Done()
			sw.rows[shi], errs[shi] = t.stream(c, acc, body, shi, id, sid, q)
		}(shi, c)
	}
	wg.Wait()
	bodies := t.wire.take()
	for _, err := range errs {
		if err != nil {
			return nil, sw, err
		}
	}
	for _, url := range t.e.urls {
		sw.streams = append(sw.streams, bodies[url])
	}
	var m *engine.Table
	tr.do(id, sid, "dist", "plan.fold", q, func() { m, err = acc.Result() })
	return m, sw, err
}

// stream fetches one shard's partial over /v1/plan/stream, decoding and
// folding each chunk as it arrives, and returns the partial's row count.
func (t *traceRun) stream(c *server.Client, acc *plan.PartialAccumulator, body []byte, shi, id, parent, q int) (int, error) {
	tr := t.tr
	sid := tr.begin(id, parent, "dist", "server.stream", q)
	start := time.Now()
	ttfc := time.Duration(-1)
	res, err := c.PlanStreamEncoded(body, func(tj *server.TableJSON) error {
		if ttfc < 0 {
			ttfc = time.Since(start)
		}
		tab, err := server.DecodeTable(tj)
		if err != nil {
			return err
		}
		tr.do(id, sid, "dist", "plan.fold", q, func() { err = acc.AddChunk(shi, tab) })
		return err
	})
	total := time.Since(start)
	if err == nil {
		tr.do(id, sid, "dist", "plan.fold", q, func() { err = acc.FinishShard(shi) })
	}
	tr.end(sid)
	if err != nil {
		return 0, err
	}
	if ttfc < 0 {
		ttfc = total // zero-row partial: the verified trailer is the first chunk
	}
	exec := float64(res.Stats.LatencyUS) / 1e3
	t.mu.Lock()
	t.ttfc = append(t.ttfc, us(ttfc))
	t.execMS = append(t.execMS, exec)
	t.overMS = append(t.overMS, ms(total)-exec)
	t.mu.Unlock()
	return res.Rows, nil
}

// runTraced is the traced run of workload w.
func runTraced(cfg config, w workload) (*result, error) {
	e, err := setupOnce(cfg, w, true)
	if err != nil {
		return nil, err
	}
	defer e.close()
	t := &traceRun{cfg: cfg, e: e, tr: newTracer(), res: newResult(), wire: installWireCapture()}
	defer t.wire.uninstall()
	res := t.res

	local := t.localSpine()
	distSt, err := t.distSpine()
	if err != nil {
		return nil, err
	}
	own := local
	if w.kind == kindDist {
		own = distSt
	}
	res.set("tpch.generate_s", e.generate.Seconds())
	res.set("tpch.plan_build_us", t.tr.meanUS("local", "tpch.plan_build"))
	res.set("core.session_new_us", t.tr.meanUS("local", "core.session_new"))
	res.set("core.session_alloc_kb", t.tr.meanAlloc("local", "core.session_new")/1024)
	res.set("core.adaptive_calls_per_query", float64(t.adaptive)/float64(t.localQs))
	res.set("primitive.prim_gcycles", t.primCycles/1e9)
	res.set("plan.bind_us", t.tr.meanUS("local", "plan.bind"))
	res.set("plan.exec_ms", t.tr.meanUS("local", "plan.exec")/1e3)
	res.set("plan.fragment_sites_us", t.tr.meanUS("dist", "plan.fragment_sites"))
	res.set("plan.fragment_encode_us", t.tr.meanUS("dist", "plan.fragment_encode"))
	res.set("plan.fold_us", sumUS(t.tr.durations("dist", "plan.fold"))/float64(len(t.tr.durations("dist", "site"))))
	res.set("plan.residual_ms", t.tr.meanUS("dist", "plan.residual")/1e3)
	res.set("plan.wire_decode_us", t.tr.meanUS("dist", "plan.wire_decode"))
	res.set("service.harvest_us", t.tr.meanUS("local", "service.harvest"))
	res.set("service.cache_hit_pct", pct(own.seeded, own.seeded+own.cold))
	res.set("server.fingerprint_us", t.tr.meanUS("local", "server.fingerprint"))
	res.set("server.table_encode_us", t.tr.meanUS("dist", "server.table_encode"))
	res.set("server.table_decode_us", t.tr.meanUS("dist", "server.table_decode"))
	res.set("server.wire_bytes_per_row", float64(t.wireBytes)/float64(max(t.wireRows, 1)))
	res.set("server.stream_ttfc_us", mean(t.ttfc))
	res.set("server.stream_total_us", t.tr.meanUS("dist", "server.stream"))
	res.set("runtime.gc_cycles_per_query", float64(own.gcs)/float64(own.queries))
	res.set("bench.trace_overhead_pct", own.overheadPct())

	t.shardServerMetrics()
	res.set("bench.generator_lag_p99_ms", percentile(own.gaps, 99))

	pp, err := probePrimitives(e.db, 5)
	if err != nil {
		return nil, err
	}
	res.set("primitive.select_ns_per_tuple.branch", pp.selectBranchNs)
	res.set("primitive.select_ns_per_tuple.nobranch", pp.selectNoBranchNs)
	res.set("primitive.map_ns_per_tuple", pp.mapNs)
	res.set("primitive.hash_ns_per_tuple", pp.hashNs)
	res.set("primitive.virtual_real_agree_pct", pp.agreePct)

	res.note("local spine: %d untraced queries in %.3fs, traced replay %.3fs", local.queries, local.untraced.Seconds(), local.traced.Seconds())
	res.note("dist spine: %d untraced queries in %.3fs, traced replay %.3fs", distSt.queries, distSt.untraced.Seconds(), distSt.traced.Seconds())
	res.note("primitive probe: virtual and real winners agree on %d of %d signatures", pp.agree, pp.timed)
	name := fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed)
	if err := t.tr.write(spansDir, name); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.note("%d spans written to %s/%s", len(t.tr.spans), spansDir, name)
	return res, nil
}

// shardServerMetrics reports the shards' admission and execution
// numbers: the shards are the servers on the dist-n2 latency path.
func (t *traceRun) shardServerMetrics() {
	var waitP50, waitP99 []float64
	var shed, expired int64
	for _, sh := range t.e.shards {
		m := sh.Server.Metrics()
		waitP50 = append(waitP50, m.QueueWaitP50US)
		waitP99 = append(waitP99, m.QueueWaitP99US)
		shed += m.Admission.Shed
		expired += m.Admission.Expired
	}
	t.res.set("server.queue_wait_p50_us", mean(waitP50))
	t.res.set("server.queue_wait_p99_us", percentile(waitP99, 100))
	t.res.set("server.shed", float64(shed))
	t.res.set("server.expired", float64(expired))
	t.res.set("server.exec_p50_ms", percentile(t.execMS, 50))
	t.res.set("server.overhead_p50_ms", percentile(t.overMS, 50)-mean(waitP50)/1e3)
}

func sumUS(ns []float64) float64 {
	s := 0.0
	for _, x := range ns {
		s += x
	}
	return s / 1e3
}
