// Command sssp-bench regenerates the paper's tables and figures on the
// simulated machine. Each -fig selector runs one experiment and prints its
// data as an aligned table (or CSV with -csv). See EXPERIMENTS.md for the
// paper-vs-measured record produced with this tool.
//
// Examples:
//
//	sssp-bench -fig 7                # ACIC vs Δ-stepping execution times
//	sssp-bench -fig all -scale 12
//	sssp-bench -fig 4 -sweep paper   # the full 0.05..0.999 sweep of §IV-E
//	sssp-bench -full                 # paper-shaped config (slower)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"acic/internal/bench"
	"acic/internal/collect"
	"acic/internal/core"
	"acic/internal/gctune"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "experiment: 1 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | modes | ablate | road | od | policy | delta | part | rel | dyn | all")
		scale  = flag.Int("scale", 0, "override graph scale (2^scale vertices)")
		trials = flag.Int("trials", 0, "override trials per data point")
		nodes  = flag.String("nodes", "", "override node counts, e.g. 1,2,4,8,16")
		sweep  = flag.String("sweep", "quick", "percentile sweep for figs 4/5: quick | paper")
		full   = flag.Bool("full", false, "use the paper-shaped configuration (slower)")
		csv    = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		verify = flag.Bool("verify", false, "verify every run against Dijkstra")
		f3dur  = flag.Duration("fig3window", 2*time.Second, "measurement window of each Fig 3 off/on run (5 pairs per point)")
		cost   = flag.Duration("cost", -1, "simulated per-update compute cost (-1 = config default)")

		traceOut   = flag.String("trace-chrome", "", "capture one instrumented ACIC run and write its Chrome/Perfetto trace to FILE")
		metricsOut = flag.String("metrics-out", "", "capture one instrumented ACIC run and write its metrics snapshot (JSON) to FILE")
		auditOut   = flag.String("audit-out", "", "capture one instrumented ACIC run and write its threshold audit to FILE (JSONL, or CSV when FILE ends in .csv)")

		gogc       = flag.Int("gogc", 0, "GC shaping: set the GC target percentage (like GOGC; 0 = leave default, negative = off)")
		gcMemLimit = flag.Int64("gcmemlimit", 0, "GC shaping: soft memory limit in MiB (like GOMEMLIMIT; 0 = leave default)")
		gcBallast  = flag.Int64("ballast", 0, "GC shaping: allocate a dead-heap ballast of this many MiB")
	)
	flag.Parse()
	gc := gctune.Apply(gctune.Config{GCPercent: *gogc, MemLimitMiB: *gcMemLimit, BallastMiB: *gcBallast})
	if gc.Active() {
		fmt.Fprintln(os.Stderr, gc)
	}

	cfg := bench.DefaultConfig()
	if *full {
		cfg = bench.PaperConfig()
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *nodes != "" {
		ns, err := parseNodes(*nodes)
		if err != nil {
			fail(err)
		}
		cfg.Nodes = ns
	}
	if *cost >= 0 {
		cfg.ComputeCost = *cost
	}
	cfg.Verify = *verify

	sweepVals := bench.QuickPercentiles()
	if *sweep == "paper" {
		sweepVals = bench.PaperPercentiles()
	}

	emit := func(t *collect.Table) {
		if *csv {
			if err := t.WriteCSV(os.Stdout); err != nil {
				fail(err)
			}
			return
		}
		if err := t.Fprint(os.Stdout); err != nil {
			fail(err)
		}
		fmt.Println()
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }

	fmt.Fprintf(os.Stderr, "sssp-bench: scale=%d (|V|=%d, |E|=%d), trials=%d, nodes=%v, topo=%dx%d per node\n",
		cfg.Scale, cfg.NumVertices(), cfg.EdgeFactor*cfg.NumVertices(), cfg.Trials, cfg.Nodes,
		cfg.ProcsPerNode, cfg.PEsPerProc)

	ran := false
	if want("1") {
		ran = true
		r, err := cfg.Fig1Histogram()
		if err != nil {
			fail(err)
		}
		emit(r.Table())
	}
	if want("3") {
		ran = true
		points, err := cfg.Fig3ReductionOverhead([]int{2, 4, 8, 16}, *f3dur)
		if err != nil {
			fail(err)
		}
		emit(bench.Fig3Table(points))
	}
	if want("4") {
		ran = true
		points, err := cfg.Fig4TramPercentile(sweepVals)
		if err != nil {
			fail(err)
		}
		emit(bench.SweepTable("Fig 4: runtime vs p_tram (paper optimum 0.999)", "p_tram", points))
	}
	if want("5") {
		ran = true
		points, err := cfg.Fig5PQPercentile(sweepVals)
		if err != nil {
			fail(err)
		}
		emit(bench.SweepTable("Fig 5: runtime vs p_pq (paper optimum 0.05)", "p_pq", points))
	}
	if want("6") {
		ran = true
		points, err := cfg.Fig6BufferSize()
		if err != nil {
			fail(err)
		}
		emit(bench.Fig6Table(points))
	}
	if want("7") || want("8") || want("9") {
		ran = true
		points, err := cfg.CompareACICDelta()
		if err != nil {
			fail(err)
		}
		if want("7") {
			emit(bench.Fig7Table(points))
		}
		if want("8") {
			emit(bench.Fig8Table(points))
		}
		if want("9") {
			emit(bench.Fig9Table(points))
		}
	}
	if want("modes") {
		ran = true
		points, err := cfg.AggregationModes(lastNode(cfg))
		if err != nil {
			fail(err)
		}
		emit(bench.ModesTable(points))
	}
	if want("ablate") {
		ran = true
		points, err := cfg.Ablations(lastNode(cfg))
		if err != nil {
			fail(err)
		}
		emit(bench.AblationsTable(points))
	}
	if want("road") {
		ran = true
		points, err := cfg.RoadGraph(lastNode(cfg))
		if err != nil {
			fail(err)
		}
		emit(bench.RoadTable(points))
	}
	if want("od") {
		ran = true
		points, err := cfg.OverDecomposition(lastNode(cfg), []int{1, 4, 16})
		if err != nil {
			fail(err)
		}
		emit(bench.ODTable(points))
	}
	if want("policy") {
		ran = true
		points, err := cfg.ThresholdPolicies(lastNode(cfg))
		if err != nil {
			fail(err)
		}
		emit(bench.PolicyTable(points))
	}
	if want("part") {
		ran = true
		points, err := cfg.PartitionLayouts(lastNode(cfg))
		if err != nil {
			fail(err)
		}
		emit(bench.PartitionTable(points))
	}
	if want("delta") {
		ran = true
		points, err := cfg.DeltaPolicies(lastNode(cfg))
		if err != nil {
			fail(err)
		}
		emit(bench.DeltaTable(points))
	}
	if want("rel") {
		ran = true
		points, err := cfg.ReliabilityOverhead(lastNode(cfg))
		if err != nil {
			fail(err)
		}
		emit(bench.RelTable(points))
	}
	if want("dyn") {
		ran = true
		points, err := cfg.DynamicRepair()
		if err != nil {
			fail(err)
		}
		emit(bench.DynTable(points))
	}
	// Observability capture: one additional fully instrumented ACIC run,
	// written alongside whatever figures ran. With -fig none it is the
	// whole job, so the paper's Fig 4/5 sweeps can be re-examined from the
	// audit log without re-running the sweep (see EXPERIMENTS.md).
	if *traceOut != "" || *metricsOut != "" || *auditOut != "" {
		ran = true
		art, err := cfg.CaptureArtifacts(lastNode(cfg))
		if err != nil {
			fail(err)
		}
		if *traceOut != "" {
			if err := writeFileWith(*traceOut, art.Trace.WriteChrome); err != nil {
				fail(err)
			}
		}
		if *metricsOut != "" {
			if err := writeFileWith(*metricsOut, art.Metrics.WriteJSON); err != nil {
				fail(err)
			}
		}
		if *auditOut != "" {
			writer := func(w io.Writer) error { return core.WriteAuditJSONL(w, art.Audit) }
			if strings.HasSuffix(*auditOut, ".csv") {
				writer = func(w io.Writer) error { return core.WriteAuditCSV(w, art.Audit) }
			}
			if err := writeFileWith(*auditOut, writer); err != nil {
				fail(err)
			}
		}
		fmt.Fprintf(os.Stderr, "sssp-bench: observability capture written (%d audit records)\n", len(art.Audit))
	}
	if !ran {
		fail(fmt.Errorf("unknown figure selector %q", *fig))
	}
}

// writeFileWith creates path and streams write's output into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lastNode picks the largest configured node count — the ablations are
// most informative at the highest parallelism level of the sweep.
func lastNode(cfg bench.Config) int { return cfg.Nodes[len(cfg.Nodes)-1] }

func parseNodes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad node count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sssp-bench:", err)
	os.Exit(1)
}
