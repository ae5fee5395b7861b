package core

// Tests for the work-paced reduction cycle: a PE owes its contribution to
// epoch e+1 once it has applied broadcast e, and pays it from Idle with an
// empty pq; the root rebroadcasts at once. No timer paces the cycle, so
// the zero-latency "flood" configurations are checked explicitly.

import (
	"testing"

	"acic/internal/gen"
	"acic/internal/graph"
	"acic/internal/netsim"
	"acic/internal/partition"
	"acic/internal/runtime"
	"acic/internal/tram"
)

// pacingProbe wraps one PE's ACIC handler and checks the pacing contract
// at every step that can move the PE's owed epoch.
type pacingProbe struct {
	*peState
	t       *testing.T
	applied int64 // last broadcast epoch applied, -1 before the first
	paid    int64 // contributions paid from Idle
}

func (p *pacingProbe) OnBroadcast(pe *runtime.PE, epoch int64, payload any) {
	p.peState.OnBroadcast(pe, epoch, payload)
	if p.terminated {
		return
	}
	p.applied = epoch
	if p.owed != epoch+1 {
		p.t.Errorf("PE %d: after broadcast %d owes epoch %d, want %d", p.me, epoch, p.owed, epoch+1)
	}
}

func (p *pacingProbe) Idle(pe *runtime.PE) bool {
	owed, pending := p.owed, p.queue.Len()
	more := p.peState.Idle(pe)
	if owed >= 0 && p.owed < 0 {
		p.paid++
		if pending != 0 {
			p.t.Errorf("PE %d: contributed to epoch %d with %d pq entries", p.me, owed, pending)
		}
		if owed != p.applied+1 {
			p.t.Errorf("PE %d: contributed to epoch %d after applying broadcast %d", p.me, owed, p.applied)
		}
	}
	return more
}

// runProbed is Run's in-process netsim path with every PE's handler
// wrapped in a pacingProbe. It returns the probes once the run ends.
func runProbed(t *testing.T, g *graph.Graph, source int, topo netsim.Topology, lat netsim.LatencyModel) []*pacingProbe {
	t.Helper()
	params, err := DefaultParams().withDefaults(g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	sc.prepare(scratchKey{pes: topo.TotalPEs(), bucketCount: params.BucketCount, tramCap: params.TramCapacity, width: params.BucketWidth})
	tm, err := tram.NewWithArena[Update](topo, params.TramMode, params.TramCapacity, nil, sc.pools.ar)
	if err != nil {
		t.Fatal(err)
	}
	sh := &sharedState{
		g:           g,
		part:        partition.NewOneD(g.NumVertices(), topo.TotalPEs()),
		tm:          tm,
		ar:          sc.pools.ar,
		pools:       sc.pools,
		bucketCount: params.BucketCount,
		bucketWidth: params.BucketWidth,
	}
	rt, err := runtime.New(runtime.Config{Topo: topo, Latency: lat, Combine: sh.combineReduce})
	if err != nil {
		t.Fatal(err)
	}
	probes := make([]*pacingProbe, topo.TotalPEs())
	rt.Start(func(pe *runtime.PE) runtime.Handler {
		p := &pacingProbe{peState: newPEState(sh, pe, params, sc.slot(pe.Index())), t: t, applied: -1}
		probes[pe.Index()] = p
		return p
	})
	rt.Inject(sh.part.Owner(int32(source)), seedMsg{source: int32(source)})
	for i := range probes {
		rt.Inject(i, startMsg{})
	}
	rt.Wait()
	if a := rt.Audit(); a.Unaccounted() != 0 {
		t.Errorf("conservation ledger unbalanced: %+v", a)
	}
	return probes
}

// TestContributionFollowsBroadcastWithEmptyPQ pins the pacing contract:
// every contribution is paid from Idle with an empty pq, to the epoch
// after the last broadcast the PE applied, and exactly one per PE per
// completed reduction (so none is paid anywhere else).
func TestContributionFollowsBroadcastWithEmptyPQ(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		topo netsim.Topology
		lat  netsim.LatencyModel
	}{
		{"uniform-zero-latency", gen.Uniform(2000, 16000, gen.Config{Seed: 21}), netsim.SingleNode(4), netsim.LatencyModel{}},
		{"grid-default-latency", gen.Grid(24, 24, gen.Config{Seed: 22}), netsim.Topology{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2}, netsim.DefaultLatency()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			probes := runProbed(t, c.g, 0, c.topo, c.lat)
			reductions := probes[0].reductions
			if reductions < 2 {
				t.Fatalf("only %d reductions; quiescence needs two", reductions)
			}
			for _, p := range probes {
				if p.paid != reductions {
					t.Errorf("PE %d paid %d contributions from Idle, want one per reduction (%d)", p.me, p.paid, reductions)
				}
			}
		})
	}
}

// TestZeroLatencyFlood covers the configurations where a cycle with no
// timer could flood the mailboxes with control traffic and starve the
// idle trigger: zero network latency, many PEs, nothing but the PEs' own
// work between cycles. Each run must be Dijkstra-exact with a balanced
// conservation ledger.
func TestZeroLatencyFlood(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid64", gen.Grid(64, 64, gen.Config{Seed: 23})},
		{"uniform13", gen.Uniform(1<<13, 16<<13, gen.Config{Seed: 24})},
	}
	topos := []struct {
		name string
		topo netsim.Topology
	}{
		{"single8", netsim.SingleNode(8)},
		{"2x2x4", netsim.Topology{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 4}},
	}
	for _, gc := range graphs {
		for _, tc := range topos {
			t.Run(gc.name+"/"+tc.name, func(t *testing.T) {
				res := runAndVerify(t, gc.g, 0, Options{Topo: tc.topo})
				if u := res.Stats.Audit.Unaccounted(); u != 0 {
					t.Errorf("Audit.Unaccounted() = %d, want 0", u)
				}
				if res.Stats.Reductions < 2 {
					t.Errorf("only %d reductions; quiescence needs two", res.Stats.Reductions)
				}
				t.Logf("%v, %d reductions", res.Stats.Elapsed, res.Stats.Reductions)
			})
		}
	}
}
