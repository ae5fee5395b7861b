package main

import (
	"math"
	"sort"
	"time"

	"acic/internal/core"
	"acic/internal/dynamic"
	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/xrand"
)

// Every input a workload feeds the program is a pure function of the
// workload seed (and, for the open-loop schedule, of the run length). Each
// input draws from its own stream of the seed, so adding draws to one input
// never shifts another.
const (
	streamGraph uint64 = iota + 1
	streamSources
	streamReads
	streamWrites
)

func stream(seed, s uint64) *xrand.Rand { return xrand.NewStream(seed, s) }

// graphSeed is the generator seed of a workload's graph.
func graphSeed(seed uint64) uint64 { return stream(seed, streamGraph).Uint64() }

// topo is every workload's machine: one node holding two processes of two
// PEs each. It is acic-serve's default shape and the smallest one with an
// inter-process tier for netsim latency and sockfab to act on.
var topo = netsim.Topology{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}

// batchWorkload is a closed loop of single core.Run solves on one graph.
type batchWorkload struct {
	graph     func(seed uint64) *graph.Graph
	latency   netsim.LatencyModel
	transport core.Transport
}

var batchWorkloads = map[string]batchWorkload{
	"batch-random": {
		graph: func(s uint64) *graph.Graph {
			return gen.Uniform(1<<14, 16<<14, gen.Config{Seed: s})
		},
		latency: netsim.DefaultLatency(),
	},
	"batch-grid": {
		graph:   func(s uint64) *graph.Graph { return gen.Grid(64, 64, gen.Config{Seed: s}) },
		latency: netsim.DefaultLatency(),
	},
	"batch-grid-tcp": {
		graph:     func(s uint64) *graph.Graph { return gen.Grid(64, 64, gen.Config{Seed: s}) },
		transport: core.TransportTCP,
	},
}

// sourcePoolSize bounds the solves of one batch run; a run cycles through
// the pool, so it must exceed the solves that fit in the longest run.
const sourcePoolSize = 1024

// goldenStride is the fractional part of the golden ratio: stepping by it
// modulo 1 visits [0, 1) about evenly for every prefix length.
const goldenStride = 0.6180339887498949

// sourcePool lists the batch sources: vertices with out-edges, so no solve
// is trivially empty, picked along a golden-ratio stride over vertex ids
// from a seeded offset. A solve's time depends strongly on its source (on
// the grid, 250–850 ms by position), so the even coverage keeps a run's
// percentiles from hinging on which sources a plain random draw happened to
// pick.
func sourcePool(g *graph.Graph, seed uint64) []int {
	var cand []int
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(v) > 0 {
			cand = append(cand, v)
		}
	}
	u := stream(seed, streamSources).Float64()
	out := make([]int, sourcePoolSize)
	for i := range out {
		out[i] = cand[int(u*float64(len(cand)))]
		if u += goldenStride; u >= 1 {
			u--
		}
	}
	return out
}

// The serve-zipf traffic mix. readRate is about a sixth of the open-loop
// knee, where reads start to queue (near 120 reads/s on a 2-core host; see
// README.md); readSLO is the read latency limit behind slo_met_ratio.
const (
	serveScale    = 12
	readRate      = 20.0 // reads per second, Poisson arrivals
	pathShare     = 0.3  // share of reads that are GET /path
	zipfExponent  = 1.5
	projection    = 4 // vertices returned by each GET /sssp
	writeInterval = 500 * time.Millisecond
	writeBatch    = 16 // mutations per POST /mutate
	readSLO       = 100 * time.Millisecond
)

func serveGraph(seed uint64) *graph.Graph {
	n := 1 << serveScale
	return gen.Uniform(n, 16*n, gen.Config{Seed: graphSeed(seed)})
}

// readOp is one scheduled read: GET /path when Path is set, else GET /sssp
// with a projection onto Vertices.
type readOp struct {
	At       time.Duration
	Path     bool
	Source   int32
	Target   int32
	Vertices []int32
}

// writeOp is one scheduled POST /mutate.
type writeOp struct {
	At    time.Duration
	Batch []dynamic.Mutation
}

// serveSchedule generates a serve run's arrivals over [0, seconds): Poisson
// reads with Zipf source popularity over a seeded vertex ranking, and one
// mutation batch every writeInterval. The batches come from a BatchGen over
// g and are valid when applied in order.
func serveSchedule(g *graph.Graph, seed uint64, seconds int) ([]readOp, []writeOp) {
	span := time.Duration(seconds) * time.Second
	n := g.NumVertices()
	r := stream(seed, streamReads)
	rank := r.Perm(n)
	z := newZipf(n, zipfExponent)
	var reads []readOp
	for at := time.Duration(0); ; {
		at += time.Duration(r.Exp(readRate) * float64(time.Second))
		if at >= span {
			break
		}
		op := readOp{At: at, Source: int32(rank[z.draw(r)])}
		if r.Float64() < pathShare {
			op.Path = true
			op.Target = int32(r.Intn(n))
		} else {
			op.Vertices = make([]int32, projection)
			for i := range op.Vertices {
				op.Vertices[i] = int32(r.Intn(n))
			}
		}
		reads = append(reads, op)
	}
	bg := dynamic.NewBatchGen(dynamic.FromCSR(g), stream(seed, streamWrites), g.MaxWeight())
	var writes []writeOp
	for at := writeInterval / 2; at < span; at += writeInterval {
		writes = append(writes, writeOp{At: at, Batch: bg.Next(writeBatch)})
	}
	return reads, writes
}

// zipf draws ranks in [0, n) with P(k) ∝ (k+1)^-s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(r *xrand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, r.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}
