package core

import (
	"fmt"
	"math"

	"acic/internal/fabric"
	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/partition"
	"acic/internal/runtime"
	"acic/internal/simclock"
	"acic/internal/sockfab"
	"acic/internal/tram"
	"acic/internal/wire"
)

// Run executes ACIC on g from source and returns the distance vector and
// run statistics. It builds the whole simulated machine — network, runtime,
// tramlib — runs to termination, and tears it down.
func Run(g *graph.Graph, source int, opts Options) (*Result, error) {
	topo := opts.Topo
	if topo == (netsim.Topology{}) {
		topo = netsim.SingleNode(4)
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if source < 0 || source >= g.NumVertices() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", source, g.NumVertices())
	}
	params, err := opts.Params.withDefaults(g.NumVertices())
	if err != nil {
		return nil, err
	}

	// Per-run pools come from the caller's Scratch when provided (repeated
	// runs then recycle the arena, contribution and per-PE state), or a
	// fresh throwaway one otherwise.
	sc := opts.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	if err := sc.acquire(); err != nil {
		return nil, err
	}
	defer sc.release()
	sc.prepare(scratchKey{
		pes:         topo.TotalPEs(),
		bucketCount: params.BucketCount,
		tramCap:     params.TramCapacity,
		width:       params.BucketWidth,
	})

	tm, err := tram.NewWithArena[Update](topo, params.TramMode, params.TramCapacity, opts.Metrics, sc.pools.ar)
	if err != nil {
		return nil, err
	}
	var part Partition = partition.NewOneD(g.NumVertices(), topo.TotalPEs())
	if params.OverDecomposition > 1 {
		part = partition.NewChunked(g.NumVertices(), topo.TotalPEs(), params.OverDecomposition)
	}
	sh := &sharedState{
		g:           g,
		part:        part,
		tm:          tm,
		tr:          opts.Trace,
		met:         newCoreMetrics(opts.Metrics),
		ar:          sc.pools.ar,
		pools:       sc.pools,
		bucketCount: params.BucketCount,
		bucketWidth: params.BucketWidth,
	}

	var newFab func(deliver func(dst int, payload any)) (fabric.Fabric, error)
	if opts.Transport == TransportTCP {
		// Real sockets impose their own timing and already deliver
		// in order exactly once, so the simulation-only knobs have no
		// meaning here; rejecting them beats silently ignoring them.
		switch {
		case opts.Latency != (netsim.LatencyModel{}):
			return nil, fmt.Errorf("core: TransportTCP models no latency; Options.Latency must be zero")
		case opts.Jitter != nil:
			return nil, fmt.Errorf("core: TransportTCP cannot inject jitter; Options.Jitter must be nil")
		case !opts.Fault.Empty():
			return nil, fmt.Errorf("core: TransportTCP cannot inject faults; Options.Fault must be empty")
		case opts.Reliability != nil:
			return nil, fmt.Errorf("core: TransportTCP is already reliable; Options.Reliability must be nil")
		}
		codec := wire.NewCodec()
		runtime.RegisterWire(codec)
		registerCoreWire(codec, sh)
		newFab = func(deliver func(dst int, payload any)) (fabric.Fabric, error) {
			return sockfab.NewMesh(sockfab.MeshConfig{
				NumProcs: topo.TotalProcs(),
				NumPEs:   topo.TotalPEs(),
				Owner:    topo.ProcessOf,
				Codec:    codec,
			}, deliver)
		}
	}

	rt, err := runtime.New(runtime.Config{
		Topo:        topo,
		Latency:     opts.Latency,
		NewFabric:   newFab,
		Combine:     sh.combineReduce,
		Trace:       opts.Trace,
		Jitter:      opts.Jitter,
		Fault:       opts.Fault,
		Reliability: opts.Reliability,
		Metrics:     opts.Metrics,
	})
	if err != nil {
		return nil, err
	}

	states := make([]*peState, topo.TotalPEs())
	rt.Start(func(pe *runtime.PE) runtime.Handler {
		st := newPEState(sh, pe, params, sc.slot(pe.Index()))
		states[pe.Index()] = st
		return st
	})

	clk := simclock.Default(opts.Clock)
	start := clk.Now()
	// Seed the source relaxation, then pull every PE into the continuous
	// reduction cycle.
	rt.Inject(sh.part.Owner(int32(source)), seedMsg{source: int32(source)})
	for i := 0; i < topo.TotalPEs(); i++ {
		rt.Inject(i, startMsg{})
	}
	rt.Wait()
	elapsed := clk.Since(start)

	res := &Result{
		Dist:   make([]float64, g.NumVertices()),
		Parent: make([]int32, g.NumVertices()),
		Stats:  Stats{Elapsed: elapsed},
	}
	for i := range res.Dist {
		res.Dist[i] = math.Inf(1)
		res.Parent[i] = -1
	}
	root := states[0]
	res.Stats.Reductions = root.reductions
	res.Stats.HistTrace = root.histTrace
	res.Stats.AuditTrace = root.auditTrace
	for peIdx, st := range states {
		for local, d := range st.dist {
			gv := sh.part.GlobalOf(peIdx, local)
			res.Dist[gv] = d
			res.Parent[gv] = st.parent[local]
		}
		res.Stats.UpdatesCreated += st.hist.Created
		res.Stats.UpdatesProcessed += st.hist.Processed
		res.Stats.UpdatesRejected += st.rejected
		res.Stats.Relaxations += st.relaxations
	}
	res.Stats.FinalizedEarly = root.finalizedEarly
	res.Stats.TramStats = tm.Stats()
	res.Stats.Network = rt.NetworkStats()
	res.Stats.Audit = rt.Audit()
	return res, nil
}
