package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// runBench runs the benchmark in-process at a tiny scale factor and
// returns its JSON summary.
func runBench(t *testing.T, workload string, seed int64, trace int) summary {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", "1", "--sf", "0.005",
		"--trace", fmt.Sprint(trace)}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%d: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("%s trace=%d: last line is not the summary: %v", workload, trace, err)
	}
	return s
}

// TestSmoke runs every workload, timed and traced, at a tiny scale
// factor: each must run clean and report exactly its mode's metrics.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace, want := range [][]metricDef{endToEnd, perLayer} {
			s := runBench(t, w.name, 1, trace)
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, s.Correct, s.Attempted, s.Failed)
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(s.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := s.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestDeterminism is the determinism self-check: at a fixed seed the
// deterministic metrics repeat exactly, and a second seed runs clean.
func TestDeterminism(t *testing.T) {
	value := func(s summary, name string) float64 { return s.Metrics[name].Value }
	for _, w := range []string{"tpch-local", "dist-n2"} {
		a, b := runBench(t, w, 1, 0), runBench(t, w, 1, 0)
		if x, y := value(a, "off_best_pct"), value(b, "off_best_pct"); x != y {
			t.Errorf("%s: off_best_pct %v then %v at the same seed", w, x, y)
		}
	}
	a, b := runBench(t, "tpch-local", 1, 1), runBench(t, "tpch-local", 1, 1)
	for _, name := range []string{"primitive.prim_gcycles", "dist.fragments_per_query", "server.wire_bytes_per_row"} {
		if x, y := value(a, name), value(b, name); x != y {
			t.Errorf("%s: %v then %v at the same seed", name, x, y)
		}
	}
	for _, trace := range []int{0, 1} {
		if s := runBench(t, "dist-n2", 2, trace); !s.Correct {
			t.Errorf("seed 2, trace=%d: %d of %d failed", trace, s.Failed, s.Attempted)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// lists exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i := range bj.Workloads {
		if i < len(workloads) && bj.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, bj.Workloads[i].Name, workloads[i].name)
		}
	}
	check := func(set string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", set, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", set, i, g, m)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}
