// Command perfbench is the repository's benchmark. It runs one workload
// against the public APIs of the service, dist and server packages,
// checks every result bit-exactly against a ground truth computed in
// set-up, and prints its metrics by name and unit; the last line of
// standard output is one JSON object with every metric.
//
// Usage (from the repository root, which run.sh builds it in):
//
//	bash perfbench/run.sh --workload tpch-local --seed 1 --seconds 15 --trace 0
//
// --trace 0 is a timed run and reports the end-to-end metrics. --trace 1
// is a separate traced run: it replays the workload's path call by call
// and reports the per-layer metrics. README.md lists the workloads, the
// metrics and which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64 // traffic and service seed
	dbSeed   int64 // database seed
	sf       float64
	seconds  time.Duration
	trace    bool
}

const (
	// setups is how many times a timed run sets up; setup_s is the median.
	setups = 3
	// spansDir is where a traced run writes its spans, from the checkout root.
	spansDir = ".bench_build/spans"
)

// result is what one run reports.
type result struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	notes     []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) fail(msg string) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, msg)
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds, trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: tpch-local or dist-n2")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the traffic and of the service's sessions")
	fs.Int64Var(&cfg.dbSeed, "db-seed", 1, "seed of the generated TPC-H database")
	fs.Float64Var(&cfg.sf, "sf", 0.05, "TPC-H scale factor")
	fs.IntVar(&seconds, "seconds", 15, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	w, ok := workloadByName(cfg.workload)
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			cfg.workload, seconds, trace)
		return 2
	}
	res, err := measure(cfg, w)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(stdout, cfg, w, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// measure runs the timed or the traced run and checks that it produced
// exactly the metrics its mode promises.
func measure(cfg config, w workload) (*result, error) {
	var res *result
	var err error
	want := endToEnd
	if cfg.trace {
		want = perLayer
		res, err = runTraced(cfg, w)
	} else {
		var e *env
		var setups []float64
		if e, setups, err = setupRepeated(cfg, w); err != nil {
			return nil, err
		}
		defer e.close()
		if res, err = runClosed(cfg, e); err == nil {
			res.set("setup_s", median(setups))
			res.set("success_pct", 100*float64(res.attempted-res.failed)/float64(res.attempted))
			res.note("set-up times %v s", setups)
		}
	}
	if err != nil {
		return nil, err
	}
	if res.attempted < 1 {
		return nil, fmt.Errorf("no request was attempted")
	}
	for _, m := range want {
		v, ok := res.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", m.Name, v)
		}
	}
	if len(res.metrics) != len(want) {
		return nil, fmt.Errorf("run measured %d metrics, its mode reports %d", len(res.metrics), len(want))
	}
	return res, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the notes, one line per metric and the JSON summary.
func report(out io.Writer, cfg config, w workload, res *result) error {
	mode := "timed"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "perfbench %s (%s run) sf=%g seed=%d db-seed=%d seconds=%v\n",
		w.name, mode, cfg.sf, cfg.seed, cfg.dbSeed, cfg.seconds)
	for _, n := range res.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	fmt.Fprintf(out, "  correctness: %d attempted, %d failed\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(out, "    failure: %s\n", f)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	rep := summary{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, n := range names {
		u := unitOf(n)
		fmt.Fprintf(out, "  %-40s %14.4f %s\n", n, res.metrics[n], u)
		rep.Metrics[n] = metricValue{Value: res.metrics[n], Unit: u}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
