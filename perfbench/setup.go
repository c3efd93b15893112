package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"microadapt/internal/core"
	"microadapt/internal/dist"
	"microadapt/internal/hw"
	"microadapt/internal/primitive"
	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/tpch"
)

type kind int

const (
	kindLocal kind = iota // service.Execute, closed loop
	kindDist              // dist.Coordinator.Execute over 2 shards, closed loop
)

type workload struct {
	name    string
	kind    kind
	queries []int // round-robin order
	// offBestPasses is how many leading passes of a closed loop
	// off_best_pct covers: enough to average over the bandits' seeded
	// exploration, few enough to finish well inside the run.
	offBestPasses int
}

// workloads are the workloads BENCHMARK.json lists.
var workloads = []workload{
	{name: "tpch-local", kind: kindLocal, queries: allQueries(), offBestPasses: 8},
	{name: "dist-n2", kind: kindDist, queries: allQueries(), offBestPasses: 4},
}

func allQueries() []int {
	qs := make([]int, 22)
	for i := range qs {
		qs[i] = i + 1
	}
	return qs
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is one set-up: the database, the ground truth of each query and
// the running system under test. Which parts are present depends on the
// workload and on whether the run is traced (a traced run sets up both
// spines).
type env struct {
	w     workload
	db    *tpch.DB
	truth map[int]digest // computed on a single-flavor session

	svc *service.Service

	coord  *dist.Coordinator
	shards []*server.Running
	urls   []string

	generate time.Duration
}

func serviceConfig(seed int64) service.Config {
	sc := service.DefaultConfig()
	sc.Seed = seed
	sc.PipelineParallelism = 1
	return sc
}

// plannedSession is the single-flavor session the ground truth runs on.
func plannedSession(dict *core.Dictionary) *core.Session {
	return core.NewSession(dict, hw.Machine1(), core.WithVectorSize(128), core.WithSeed(3))
}

// computeTruth runs every query once on a single-flavor session: no
// adaptivity, so a mismatch with it is the program's fault, not a flavor
// difference.
func computeTruth(db *tpch.DB, queries []int) (map[int]digest, error) {
	dict := primitive.NewDictionary(primitive.Defaults())
	out := make(map[int]digest, len(queries))
	for _, q := range queries {
		tab, err := tpch.Query(q).Run(db, plannedSession(dict))
		if err != nil {
			return nil, fmt.Errorf("ground truth Q%02d: %w", q, err)
		}
		out[q] = tableDigest(tab)
	}
	return out, nil
}

// setupOnce generates the database, computes the ground truth, starts
// the system under test and runs one warm-up pass over the workload's
// queries, so caches fill and lazy set-up finishes before timing.
func setupOnce(cfg config, w workload, traced bool) (e *env, err error) {
	e = &env{w: w}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	t0 := time.Now()
	e.db = tpch.Generate(cfg.sf, cfg.dbSeed)
	e.generate = time.Since(t0)
	if e.truth, err = computeTruth(e.db, w.queries); err != nil {
		return e, err
	}
	sc := serviceConfig(cfg.seed)
	if w.kind == kindLocal || traced {
		e.svc = service.New(e.db, sc)
		for _, q := range w.queries {
			if _, _, err := e.svc.Execute(q); err != nil {
				return e, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	if w.kind == kindDist || traced {
		if err := e.startFleet(sc); err != nil {
			return e, err
		}
		for _, q := range w.queries {
			if _, _, err := e.coord.Execute(q); err != nil {
				return e, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return e, nil
}

// startFleet starts two in-process shard servers over row-range shards
// of the database on loopback HTTP, and a coordinator that runs fragment
// sites one at a time (SiteFanout 1), which keeps shard-side learning
// deterministic.
func (e *env) startFleet(sc service.Config) error {
	const n = 2
	for i := 0; i < n; i++ {
		run, err := server.Start(server.NewServer(server.Config{Service: service.New(e.db.Shard(i, n), sc)}), "")
		if err != nil {
			return fmt.Errorf("start shard %d: %w", i, err)
		}
		e.shards = append(e.shards, run)
		e.urls = append(e.urls, run.URL)
	}
	c, err := dist.New(dist.Config{Shards: e.urls, DB: e.db, Service: sc, SiteFanout: 1})
	if err != nil {
		return err
	}
	if err := c.WaitReady(time.Minute); err != nil {
		return err
	}
	e.coord = c
	return nil
}

// close stops every server the set-up started and waits for them.
func (e *env) close() {
	stop := func(r *server.Running) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Shutdown(ctx) // best effort: the process is about to report or exit
	}
	for _, r := range e.shards {
		stop(r)
	}
	e.shards = nil
}

// setupRepeated sets up setups times and keeps the last set-up; the
// earlier ones exist only to give setup_s a median.
func setupRepeated(cfg config, w workload) (*env, []float64, error) {
	var times []float64
	var e *env
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setupOnce(cfg, w, false); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, times, nil
}
