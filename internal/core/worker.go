package core

import (
	"fmt"

	"acic/internal/fabric"
	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/partition"
	"acic/internal/runtime"
	"acic/internal/sockfab"
	"acic/internal/tram"
	"acic/internal/wire"
)

// Worker hosts one OS process's share of a multi-process ACIC run. Where
// Run (TransportTCP) keeps every process's node in one address space, a
// Worker owns exactly one sockfab node and the PEs of one topology
// process; cmd/acic-launch spawns one Worker per process and stitches the
// partial results back together.
//
// Every process must build its Worker from the same graph, source and
// options — the launcher guarantees that by regenerating the graph from
// the same seed in each worker. Lifecycle: NewWorker (binds a loopback
// listener), exchange Addr with the peers out of band, then Run with the
// full address list.
type Worker struct {
	g      *graph.Graph
	source int
	topo   netsim.Topology
	params Params
	opts   Options
	proc   int
	lo, hi int

	sc   *Scratch
	sh   *sharedState
	node *sockfab.Node
}

// WorkerResult is one process's slice of the run: the distances and
// parents of the vertices its PEs own, plus the process-local conservation
// ledger. Reductions is nonzero only on the process hosting the root PE.
type WorkerResult struct {
	Lo, Hi     int
	Vertices   []int32
	Dist       []float64
	Parent     []int32
	Reductions int64
	Audit      runtime.Audit
}

// NewWorker validates the configuration, builds the process's share of the
// machine and binds the transport listener on 127.0.0.1. The returned
// worker is listening but not yet connected; its Addr must reach every
// peer before Run.
func NewWorker(g *graph.Graph, source int, opts Options, proc int) (*Worker, error) {
	topo := opts.Topo
	if topo == (netsim.Topology{}) {
		topo = netsim.SingleNode(4)
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if proc < 0 || proc >= topo.TotalProcs() {
		return nil, fmt.Errorf("core: worker proc %d out of range [0,%d)", proc, topo.TotalProcs())
	}
	if source < 0 || source >= g.NumVertices() {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", source, g.NumVertices())
	}
	params, err := opts.Params.withDefaults(g.NumVertices())
	if err != nil {
		return nil, err
	}
	// A worker is always a real transport; the simulation knobs are as
	// meaningless here as under Run's TransportTCP.
	switch {
	case opts.Latency != (netsim.LatencyModel{}):
		return nil, fmt.Errorf("core: workers run over TCP and model no latency; Options.Latency must be zero")
	case opts.Jitter != nil:
		return nil, fmt.Errorf("core: workers run over TCP and cannot inject jitter; Options.Jitter must be nil")
	case !opts.Fault.Empty():
		return nil, fmt.Errorf("core: workers run over TCP and cannot inject faults; Options.Fault must be empty")
	case opts.Reliability != nil:
		return nil, fmt.Errorf("core: TCP is already reliable; Options.Reliability must be nil")
	}

	sc := opts.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	if err := sc.acquire(); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			sc.release()
		}
	}()
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
	codec := wire.NewCodec()
	runtime.RegisterWire(codec)
	registerCoreWire(codec, sh)

	node, err := sockfab.NewNode(sockfab.NodeConfig{
		Proc:     proc,
		NumProcs: topo.TotalProcs(),
		NumPEs:   topo.TotalPEs(),
		Owner:    topo.ProcessOf,
		Codec:    codec,
	})
	if err != nil {
		return nil, err
	}
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}

	lo, hi := topo.PEsOfProcess(proc)
	ok = true
	return &Worker{
		g: g, source: source, topo: topo, params: params, opts: opts,
		proc: proc, lo: lo, hi: hi,
		sc: sc, sh: sh, node: node,
	}, nil
}

// Addr returns the worker's transport listen address.
func (w *Worker) Addr() string { return w.node.Addr() }

// Run connects to the peers (addrs is the full per-process address list,
// indexed by proc), executes the run to termination, and returns this
// process's slice of the result. It releases the worker's Scratch; a
// Worker runs once.
func (w *Worker) Run(addrs []string) (*WorkerResult, error) {
	defer w.sc.release()
	if len(addrs) != w.topo.TotalProcs() {
		return nil, fmt.Errorf("core: got %d peer addresses for %d processes", len(addrs), w.topo.TotalProcs())
	}
	if err := w.node.Connect(addrs); err != nil {
		return nil, err
	}

	rt, err := runtime.New(runtime.Config{
		Topo: w.topo,
		Span: runtime.Span{Lo: w.lo, Hi: w.hi},
		NewFabric: func(deliver func(dst int, payload any)) (fabric.Fabric, error) {
			w.node.Start(deliver)
			return w.node, nil
		},
		Combine: w.sh.combineReduce,
		Trace:   w.opts.Trace,
		Metrics: w.opts.Metrics,
	})
	if err != nil {
		return nil, err
	}

	states := make([]*peState, w.topo.TotalPEs())
	rt.Start(func(pe *runtime.PE) runtime.Handler {
		st := newPEState(w.sh, pe, w.params, w.sc.slot(pe.Index()))
		states[pe.Index()] = st
		return st
	})

	// Each process seeds only what it hosts: the source relaxation if the
	// source vertex's owner lives here, and the reduction-cycle start for
	// every hosted PE. The cycle's reductions and broadcasts then flow
	// across the fabric like any other message.
	if owner := w.sh.part.Owner(int32(w.source)); owner >= w.lo && owner < w.hi {
		rt.Inject(owner, seedMsg{source: int32(w.source)})
	}
	for i := w.lo; i < w.hi; i++ {
		rt.Inject(i, startMsg{})
	}
	rt.Wait()

	res := &WorkerResult{Lo: w.lo, Hi: w.hi, Audit: rt.Audit()}
	for pe := w.lo; pe < w.hi; pe++ {
		st := states[pe]
		for local, d := range st.dist {
			res.Vertices = append(res.Vertices, w.sh.part.GlobalOf(pe, local))
			res.Dist = append(res.Dist, d)
			res.Parent = append(res.Parent, st.parent[local])
		}
	}
	if w.lo == 0 {
		res.Reductions = states[0].reductions
	}
	return res, nil
}
