package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"acic/internal/core"
	"acic/internal/graph"
	"acic/internal/metrics"
	"acic/internal/seq"
	"acic/internal/trace"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
// Each set-up warms up with a different source, because a solve's time
// depends on its source.
const setupRepeats = 9

// traceCapPerPE caps each PE's trace buffer. The buffer grows on demand,
// so a large cap costs nothing up front, and it keeps Dropped at 0 for
// every solve these workloads run.
const traceCapPerPE = 1 << 26

type runOpts struct {
	seed    uint64
	seconds int
	trace   bool
}

func (w batchWorkload) options(sc *core.Scratch) core.Options {
	return core.Options{Topo: topo, Latency: w.latency, Transport: w.transport, Scratch: sc}
}

// runBatch runs a closed loop of solves: one core.Run at a time, each
// checked against Dijkstra and the message ledger outside its timing. A
// traced run alternates instrumented and plain solves, and each pair runs
// from one source, so trace.overhead_ratio compares like with like.
func runBatch(w batchWorkload, o runOpts, rep *report, spans *spanLog) error {
	gs := graphSeed(o.seed)
	var (
		g       *graph.Graph
		sources []int
		sc      *core.Scratch
		setups  []float64
		genS    []float64
	)
	for i := 0; i < setupRepeats; i++ {
		root := spans.id()
		t0 := time.Now()
		g = w.graph(gs)
		t1 := time.Now()
		if sources == nil {
			sources = sourcePool(g, o.seed) // input derivation, not set-up
		}
		sc = &core.Scratch{}
		t2 := time.Now()
		if _, err := core.Run(g, sources[i], w.options(sc)); err != nil {
			return fmt.Errorf("warm-up solve: %w", err)
		}
		t3 := time.Now()
		spans.add(root, 0, "gen", t0, t1)
		spans.add(root, 0, "core.Run", t2, t3)
		spans.record(root, 0, 0, "setup", t0, t3)
		genS = append(genS, t1.Sub(t0).Seconds())
		setups = append(setups, t1.Sub(t0).Seconds()+t3.Sub(t2).Seconds())
	}

	var (
		solveMs, tracedMs, dijkstraMs []float64
		lay                           batchLayers
		allocBytes, gcs               uint64
		plainOps                      int
	)
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		k := i
		if o.trace {
			k = i / 2 // solves 2k (traced) and 2k+1 (plain) share a source
		}
		src := sources[(setupRepeats+k)%len(sources)]
		traced := o.trace && i%2 == 0
		opts := w.options(sc)
		var (
			reg    *metrics.Registry
			tr     *trace.Recorder
			m0, m1 goruntime.MemStats
		)
		if traced {
			reg = metrics.New(topo.TotalPEs())
			tr = trace.New(topo.TotalPEs(), traceCapPerPE)
			opts.Metrics, opts.Trace = reg, tr
		} else if o.trace {
			goruntime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		res, err := core.Run(g, src, opts)
		t1 := time.Now()
		if o.trace && !traced {
			goruntime.ReadMemStats(&m1)
			allocBytes += m1.TotalAlloc - m0.TotalAlloc
			gcs += uint64(m1.NumGC - m0.NumGC)
			plainOps++
		}

		rep.Attempted++
		op := fmt.Sprintf("%d/source=%d", i, src)
		if err != nil {
			rep.fail(op, "error: "+err.Error(), false)
			continue
		}
		dj, cause := checkSolve(g, src, res)
		t2 := t1.Add(dj)
		dijkstraMs = append(dijkstraMs, ms(dj))
		if cause != "" {
			rep.fail(op, cause, true)
			continue
		}
		wall := t1.Sub(t0)
		if traced {
			root := spans.id()
			spans.add(root, int64(i), "core.Run", t0, t1)
			spans.add(root, int64(i), "seq.Dijkstra", t1, t2)
			spans.record(root, 0, int64(i), "solve", t0, t2)
			lay.add(reg.Snapshot(), tr, res, wall)
			tracedMs = append(tracedMs, ms(wall))
		} else {
			solveMs = append(solveMs, ms(wall))
		}
	}

	if !o.trace {
		p50, p90 := quantile(solveMs, 0.5), quantile(solveMs, 0.9)
		rep.add("solve_ms_p50", p50, "ms", len(solveMs))
		rep.add("solve_ms_p90", p90, "ms", len(solveMs))
		rep.add("op_ms_p50", p50, "ms", len(solveMs))
		rep.add("op_ms_p90", p90, "ms", len(solveMs))
		rep.add("setup_s", quantile(setups, 0.5), "s", len(setups))
		rep.add("fail_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio", rep.Attempted)
		rep.add("rss_peak_mb", peakRSSMB(), "MB", 0)
		return nil
	}
	lay.report(rep)
	plainP50 := quantile(solveMs, 0.5)
	dijP50 := quantile(dijkstraMs, 0.5)
	rep.add("seq.dijkstra_ms_p50", dijP50, "ms", len(dijkstraMs))
	rep.add("core.vs_dijkstra", ratio(plainP50, dijP50), "ratio", len(solveMs))
	rep.add("gen.graph_s", quantile(genS, 0.5), "s", len(genS))
	rep.add("go.alloc_mb_per_op", ratio(float64(allocBytes)/(1<<20), float64(plainOps)), "MB", plainOps)
	rep.add("go.gc_per_op", ratio(float64(gcs), float64(plainOps)), "count", plainOps)
	rep.add("loadgen.lag_ms_p90", 0, "ms", 0) // a closed loop has no schedule to lag
	rep.add("trace.overhead_ratio", ratio(quantile(tracedMs, 0.5), plainP50), "ratio", len(tracedMs))
	rep.add("trace.plain_ops", float64(len(solveMs)), "count", 0)
	return nil
}

// checkSolve compares one solve with Dijkstra on the same graph and source
// and checks the run's message ledger. It returns Dijkstra's time and the
// cause of a failure, or "" if the solve is correct.
func checkSolve(g *graph.Graph, src int, res *core.Result) (time.Duration, string) {
	t := time.Now()
	want := seq.Dijkstra(g, src)
	d := time.Since(t)
	if len(res.Dist) != len(want.Dist) {
		return d, fmt.Sprintf("distance vector has %d entries, Dijkstra %d", len(res.Dist), len(want.Dist))
	}
	for i, w := range want.Dist {
		if !near(res.Dist[i], w) {
			return d, fmt.Sprintf("distance mismatch at vertex %d: got %v, Dijkstra %v", i, res.Dist[i], w)
		}
	}
	a := res.Stats.Audit
	if u := a.Unaccounted(); u != 0 {
		return d, fmt.Sprintf("ledger: %d messages unaccounted (%+v)", u, a)
	}
	if a.NetQueue != 0 {
		return d, fmt.Sprintf("ledger: %d messages left in the network queue", a.NetQueue)
	}
	return d, ""
}

// batchLayers sums the layer counters of the traced solves.
type batchLayers struct {
	ops                                            int
	wall                                           time.Duration
	reductions, created, rejected, parked, drained int64
	delivered, idle, blocks                        int64
	blocked                                        time.Duration
	peEvents, busiest                              int64
	items, batches, autoFlushes, manualFlushes     int64
	netMsgs, maxQueue, boundary, dropped           int64
}

func (l *batchLayers) add(s metrics.Snapshot, tr *trace.Recorder, res *core.Result, wall time.Duration) {
	l.ops++
	l.wall += wall
	l.reductions += s.Counter("core.reductions")
	l.created += s.Counter("core.updates_created")
	l.rejected += s.Counter("core.updates_rejected")
	l.parked += s.Counter("core.tram_hold_parked") + s.Counter("core.pq_hold_parked")
	l.drained += s.Counter("core.hold_drained")
	l.delivered += s.Counter("runtime.app_delivered")
	l.idle += s.Counter("runtime.idle_work")
	l.blocks += s.Counter("runtime.blocks")
	l.items += s.Counter("tram.items")
	l.batches += s.Counter("tram.batches")
	l.autoFlushes += s.Counter("tram.auto_flushes")
	l.manualFlushes += s.Counter("tram.manual_flushes")
	l.netMsgs += s.Counter("netsim.messages_sent")
	l.maxQueue = max(l.maxQueue, s.Gauge("netsim.max_queue_depth").Max)
	l.boundary += res.Stats.Audit.BoundaryOut
	var busiest int64
	for _, pe := range tr.Summarize() {
		l.blocked += pe.BlockedTime
		l.dropped += pe.Dropped
		ev := pe.ByKind[trace.KindDeliver] + pe.ByKind[trace.KindIdleWork]
		l.peEvents += ev
		busiest = max(busiest, ev)
	}
	l.busiest += busiest
}

func (l *batchLayers) report(rep *report) {
	per := func(v int64) float64 { return ratio(float64(v), float64(l.ops)) }
	rep.add("core.reductions", per(l.reductions), "count", l.ops)
	rep.add("core.cycle_ms", ratio(ms(l.wall), float64(l.reductions)), "ms", int(l.reductions))
	rep.add("core.updates_created", per(l.created), "count", l.ops)
	rep.add("core.wasted_ratio", ratio(float64(l.rejected), float64(l.created)), "ratio", int(l.created))
	rep.add("core.hold_parked", per(l.parked), "count", l.ops)
	rep.add("core.hold_drained", per(l.drained), "count", l.ops)
	peWall := float64(l.wall) * float64(topo.TotalPEs())
	rep.add("runtime.blocked_frac", ratio(float64(l.blocked), peWall), "ratio", l.ops)
	rep.add("runtime.app_delivered", per(l.delivered), "count", l.ops)
	rep.add("runtime.idle_work", per(l.idle), "count", l.ops)
	rep.add("runtime.blocks", per(l.blocks), "count", l.ops)
	rep.add("runtime.busiest_pe_share", ratio(float64(l.busiest), float64(l.peEvents)), "ratio", int(l.peEvents))
	rep.add("runtime.pe_events", per(l.peEvents), "count", l.ops)
	rep.add("tram.items_per_batch", ratio(float64(l.items), float64(l.batches)), "count", int(l.batches))
	rep.add("tram.batches", per(l.batches), "count", l.ops)
	flushes := l.autoFlushes + l.manualFlushes
	rep.add("tram.auto_flush_share", ratio(float64(l.autoFlushes), float64(flushes)), "ratio", int(flushes))
	rep.add("tram.flushes", per(flushes), "count", l.ops)
	rep.add("netsim.messages_sent", per(l.netMsgs), "count", l.ops)
	rep.add("netsim.max_queue_depth", float64(l.maxQueue), "count", l.ops)
	rep.add("sockfab.boundary_msgs", per(l.boundary), "count", l.ops)
	rep.add("trace.dropped", float64(l.dropped), "count", 0)
	rep.add("trace.ops", float64(l.ops), "count", 0)
	if l.dropped != 0 {
		rep.Wrong++ // a truncated trace invalidates every per-layer number
		rep.Failures = append(rep.Failures, failure{Workload: rep.Workload, Op: "trace",
			Cause: fmt.Sprintf("trace recorder dropped %d events", l.dropped)})
	}
}
