package main

import (
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"acic/internal/core"
	"acic/internal/gen"
	"acic/internal/graph"
)

func graphHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	g.EachEdge(func(from, to int32, w float64) {
		var b [16]byte
		for i := 0; i < 4; i++ {
			b[i], b[4+i] = byte(from>>(8*i)), byte(to>>(8*i))
		}
		bits := math.Float64bits(w)
		for i := 0; i < 8; i++ {
			b[8+i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	})
	return h.Sum64()
}

// TestInputsArePureFunctionsOfSeed pins that one seed gives identical
// inputs on every run and another seed gives different ones.
func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	for name, w := range batchWorkloads {
		g1, g2, g3 := w.graph(graphSeed(7)), w.graph(graphSeed(7)), w.graph(graphSeed(8))
		if graphHash(g1) != graphHash(g2) {
			t.Errorf("%s: seed 7 generated two different graphs", name)
		}
		if graphHash(g1) == graphHash(g3) {
			t.Errorf("%s: seeds 7 and 8 generated the same graph", name)
		}
		if !reflect.DeepEqual(sourcePool(g1, 7), sourcePool(g2, 7)) {
			t.Errorf("%s: seed 7 drew two different source pools", name)
		}
		if reflect.DeepEqual(sourcePool(g1, 7), sourcePool(g1, 8)) {
			t.Errorf("%s: seeds 7 and 8 drew the same source pool", name)
		}
	}

	g1, g2 := serveGraph(7), serveGraph(7)
	if graphHash(g1) != graphHash(g2) {
		t.Fatal("serve-zipf: seed 7 generated two different graphs")
	}
	r1, w1 := serveSchedule(g1, 7, 3)
	r2, w2 := serveSchedule(g2, 7, 3)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(w1, w2) {
		t.Error("serve-zipf: seed 7 generated two different schedules")
	}
	r3, w3 := serveSchedule(serveGraph(8), 8, 3)
	if reflect.DeepEqual(r1, r3) || reflect.DeepEqual(w1, w3) {
		t.Error("serve-zipf: seeds 7 and 8 generated the same schedule")
	}
	if len(w1) == 0 || len(w1[0].Batch) != writeBatch {
		t.Errorf("serve-zipf: want %d-edge mutation batches, got %v", writeBatch, w1)
	}
}

// measuredBy lists, per workload, the metric prefixes its runs measure
// (rather than fill with 0).
var measuredBy = map[string][]string{
	"batch": {"solve_ms_", "op_ms_", "setup_s", "fail_ratio", "rss_peak_mb",
		"core.", "runtime.", "tram.", "netsim.", "sockfab.", "seq.", "gen.", "go.", "loadgen.", "trace."},
	"serve": {"read_ms_", "write_ms_p50", "slo_met_ratio", "op_ms_", "setup_s", "fail_ratio", "rss_peak_mb",
		"engine.", "dynamic.", "seq.", "core.vs_dijkstra", "gen.", "go.", "loadgen.", "trace."},
}

// TestSmokeEveryMetric runs each workload briefly, untraced and traced, and
// checks that every metric the benchmark names is emitted with its unit and
// that every op passed the oracle.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			rep := &report{Workload: name, Seconds: 1, Trace: traced}
			o := runOpts{seed: 3, seconds: 1, trace: traced}
			var spans *spanLog
			if traced {
				spans = newSpanLog()
			}
			var err error
			kind := "serve"
			if w, ok := batchWorkloads[name]; ok {
				kind = "batch"
				err = runBatch(w, o, rep, spans)
			} else {
				err = runServe(o, rep, spans)
			}
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", name, traced, rep.Failed, rep.Attempted, rep.Failures)
			}
			line, err := rep.result()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: result line has %d metrics, want %d", name, traced, len(line.Metrics), len(specs))
			}
			for _, s := range specs {
				if !measures(kind, s.Name) {
					continue
				}
				if _, ok := rep.metric(s.Name); !ok {
					t.Errorf("%s trace=%v: %s not measured", name, traced, s.Name)
				}
			}
			for _, m := range rep.Metrics {
				if m.Unit == "" {
					t.Errorf("%s trace=%v: %s has no unit", name, traced, m.Name)
				}
			}
			if traced {
				if m, _ := rep.metric("trace.dropped"); m.Value != 0 {
					t.Errorf("%s: trace dropped %v events", name, m.Value)
				}
				if len(spans.all()) == 0 {
					t.Errorf("%s: traced run recorded no spans", name)
				}
			} else {
				for _, n := range []string{"setup_s", "fail_ratio", "rss_peak_mb"} {
					if _, ok := rep.metric(n); !ok {
						t.Errorf("%s: %s not reported", name, n)
					}
				}
			}
		}
	}
}

func measures(kind, metric string) bool {
	for _, p := range measuredBy[kind] {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

// TestCheckSolveCatchesWrongDistances pins that the batch oracle check
// fails a solve that leaves a reachable vertex at +Inf, reports a finite
// distance for an unreachable one, or is off by more than the tolerance.
func TestCheckSolveCatchesWrongDistances(t *testing.T) {
	g := gen.Grid(8, 8, gen.Config{Seed: 1})
	res, err := core.Run(g, 0, batchWorkloads["batch-grid"].options(&core.Scratch{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, cause := checkSolve(g, 0, res); cause != "" {
		t.Fatalf("correct solve failed the check: %s", cause)
	}
	v := -1
	for i, d := range res.Dist {
		if i != 0 && !math.IsInf(d, 1) {
			v = i
			break
		}
	}
	if v < 0 {
		t.Fatal("no reachable vertex besides the source")
	}
	good := res.Dist
	for _, c := range []struct {
		name string
		dist float64
	}{
		{"reachable vertex left at +Inf", math.Inf(1)},
		{"distance off by 1e-6", good[v] * (1 + 1e-6)},
	} {
		res.Dist = append([]float64(nil), good...)
		res.Dist[v] = c.dist
		if _, cause := checkSolve(g, 0, res); cause == "" {
			t.Errorf("%s: check passed", c.name)
		}
	}
	res.Dist = append([]float64(nil), good...)
	res.Dist[0] = math.Inf(1)
	if _, cause := checkSolve(g, 0, res); cause == "" {
		t.Error("source left at +Inf: check passed")
	}
	res.Dist = good[:len(good)-1]
	if _, cause := checkSolve(g, 0, res); cause == "" {
		t.Error("short distance vector: check passed")
	}
	if near(math.Inf(1), 5) || near(5, math.Inf(1)) || !near(math.Inf(1), math.Inf(1)) {
		t.Error("near must treat +Inf as equal only to +Inf")
	}
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's workloads and metric
// lists to the ones this program runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if want := workloadNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestCompareRefusesHostMismatch pins that timings from different hosts
// are never compared.
func TestCompareRefusesHostMismatch(t *testing.T) {
	host := fingerprint{CPUModel: "cpu A", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64"}
	a := &report{Host: host, Workload: "batch-grid", Seconds: 20, Metrics: []metric{{Name: "op_ms_p50", Value: 1, Unit: "ms"}}}
	b := *a
	b.Host.TreeHash = "another tree"
	if err := compareRecords(io.Discard, a, &b); err != nil {
		t.Fatalf("same host, different trees: %v", err)
	}
	for _, mutate := range []func(*fingerprint){
		func(f *fingerprint) { f.CPUModel = "cpu B" },
		func(f *fingerprint) { f.NumCPU = 4 },
		func(f *fingerprint) { f.GOMAXPROCS = 1 },
		func(f *fingerprint) { f.GoVersion = "go1.23" },
	} {
		c := *a
		mutate(&c.Host)
		if err := compareRecords(io.Discard, a, &c); !errors.Is(err, errHostMismatch) {
			t.Errorf("host %s vs %s: got %v, want errHostMismatch", a.Host.hostKey(), c.Host.hostKey(), err)
		}
	}
}
