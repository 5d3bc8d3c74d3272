package sim

// Differential tests for the indexed delivery engines: every protocol's
// per-sender seq-keyed engine must produce results indistinguishable from
// the reference full-buffer rescan on identical workloads and schedules —
// same applies, messages, oracle verdicts, stuck counts, false-dependency
// accounting and per-step pending maxima. Only the Protocol name may
// differ: both drains apply the lowest deliverable sender first, so a
// relaying protocol forwards concurrent updates in one order too.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/sharegraph"
	"repro/internal/transport"
	"repro/internal/workload"
)

// enginePair builds the indexed and reference variants of one protocol.
type enginePair struct {
	name      string
	indexed   func(*sharegraph.Graph) (core.Protocol, error)
	reference func(*sharegraph.Graph) (core.Protocol, error)
}

func enginePairs() []enginePair {
	return []enginePair{
		{
			"edge-indexed",
			func(g *sharegraph.Graph) (core.Protocol, error) { return core.NewEdgeIndexed(g) },
			func(g *sharegraph.Graph) (core.Protocol, error) { return core.NewEdgeIndexedNaive(g) },
		},
		{
			"matrix",
			func(g *sharegraph.Graph) (core.Protocol, error) { return baseline.NewMatrix(g), nil },
			func(g *sharegraph.Graph) (core.Protocol, error) { return baseline.NewMatrixRescan(g), nil },
		},
		{
			"dummy-broadcast",
			func(g *sharegraph.Graph) (core.Protocol, error) { return baseline.NewBroadcast(g), nil },
			func(g *sharegraph.Graph) (core.Protocol, error) { return baseline.NewBroadcastRescan(g), nil },
		},
		{
			"naive-vector",
			func(g *sharegraph.Graph) (core.Protocol, error) { return baseline.NewNaiveVector(g), nil },
			func(g *sharegraph.Graph) (core.Protocol, error) { return baseline.NewNaiveVectorRescan(g), nil },
		},
		{
			"fifo-only",
			func(g *sharegraph.Graph) (core.Protocol, error) { return baseline.NewFIFOOnly(g), nil },
			func(g *sharegraph.Graph) (core.Protocol, error) { return baseline.NewFIFOOnlyRescan(g), nil },
		},
	}
}

// relayPair is the pair of a placement's relay protocol.
func relayPair(name string, build func(*sharegraph.Graph) (*optimize.PlacementProtocol, error)) enginePair {
	return enginePair{
		name:    name,
		indexed: func(g *sharegraph.Graph) (core.Protocol, error) { return build(g) },
		reference: func(g *sharegraph.Graph) (core.Protocol, error) {
			pp, err := build(g)
			if err != nil {
				return nil, err
			}
			return pp.Rescan(), nil
		},
	}
}

// ringRelayPairs are built over rings only: the Figure 13 ring break and
// the placement the search finds there.
func ringRelayPairs(t *testing.T) []enginePair {
	return []enginePair{
		relayPair("ring-break", func(g *sharegraph.Graph) (*optimize.PlacementProtocol, error) {
			rb, err := optimize.BreakRing(g.NumReplicas())
			if err != nil {
				return nil, err
			}
			return &rb.PlacementProtocol, nil
		}),
		relayPair("searched-placement", func(g *sharegraph.Graph) (*optimize.PlacementProtocol, error) {
			return searchProtocol(t, g, 1), nil
		}),
	}
}

// sharedHopGraph is a hub (replica 0) with three leaves, two of which (2
// and 3) also share a register directly. sharedHopPair breaks the two
// registers leaf 1 shares with them, so both are relayed through the hub
// and their routes share the directed hop 0→1: what 3 writes to x and what
// 2 then writes to y reach the hub from different senders and must leave
// it for 1 in causal order.
func sharedHopGraph() *sharegraph.Graph {
	g, err := sharegraph.New([][]sharegraph.Register{
		{"a", "b", "c"}, {"c", "x", "y"}, {"b", "y", "z"}, {"a", "x", "z"},
	})
	if err != nil {
		panic(err)
	}
	return g
}

func sharedHopPair() enginePair {
	return relayPair("shared-hop-placement", func(g *sharegraph.Graph) (*optimize.PlacementProtocol, error) {
		p := optimize.NewPlacement(g)
		p.Broken["x"] = optimize.Route{1, 0, 3}
		p.Broken["y"] = optimize.Route{1, 0, 2}
		return p.Protocol("shared-hop")
	})
}

// equivSchedulers returns fresh schedulers per call so both runs see
// identical pick sequences: seeded-random reorderings, the adversarial
// LIFO reversal, and benign FIFO.
func equivSchedulers() map[string]func() transport.Scheduler {
	out := map[string]func() transport.Scheduler{
		"lifo": func() transport.Scheduler { return transport.LIFOScheduler{} },
		"fifo": func() transport.Scheduler { return transport.FIFOScheduler{} },
	}
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		out[fmt.Sprintf("random%d", seed)] = func() transport.Scheduler { return transport.NewRandom(seed) }
	}
	return out
}

func TestEngineEquivalence(t *testing.T) {
	topos := []struct {
		name string
		g    *sharegraph.Graph
	}{
		{"fig5", sharegraph.Fig5Example()},
		{"ring8", sharegraph.Ring(8)},
		{"grid9", sharegraph.Grid(3, 3)},
		{"randomk8", sharegraph.RandomK(8, 24, 3, 5)},
		{"sharedhop4", sharedHopGraph()},
	}
	relays := map[string][]enginePair{
		"ring8":      ringRelayPairs(t),
		"sharedhop4": {sharedHopPair()},
	}
	for _, topo := range topos {
		script := workload.SharedOnly(topo.g, 400, 3)
		for pairIdx, pair := range append(enginePairs(), relays[topo.name]...) {
			relayed := pairIdx >= len(enginePairs())
			pi, err := pair.indexed(topo.g)
			if err != nil {
				t.Fatalf("%s/%s: %v", topo.name, pair.name, err)
			}
			pr, err := pair.reference(topo.g)
			if err != nil {
				t.Fatalf("%s/%s: %v", topo.name, pair.name, err)
			}
			for schedName, mkSched := range equivSchedulers() {
				t.Run(fmt.Sprintf("%s/%s/%s", topo.name, pair.name, schedName), func(t *testing.T) {
					cfgI := Config{Graph: topo.g, Protocol: pi, Script: script, Sched: mkSched(), TrackFalseDeps: true}
					cfgR := Config{Graph: topo.g, Protocol: pr, Script: script, Sched: mkSched(), TrackFalseDeps: true}
					ri, err := Run(cfgI)
					if err != nil {
						t.Fatal(err)
					}
					rr, err := Run(cfgR)
					if err != nil {
						t.Fatal(err)
					}
					// Engine choice must be invisible in every measurement.
					ri.Protocol, rr.Protocol = "", ""
					ri.Scheduler, rr.Scheduler = "", ""
					if !reflect.DeepEqual(ri, rr) {
						t.Errorf("engines diverge:\nindexed:   %+v\nreference: %+v", ri, rr)
					}
					// Relaying must stay causally consistent, not just the
					// same under both drains.
					if relayed && (len(ri.Violations) > 0 || ri.StuckPending > 0) {
						t.Errorf("%d violations, %d stuck; first: %v", len(ri.Violations), ri.StuckPending, ri.Violations)
					}
				})
			}
		}
	}
}

// TestEngineEquivalenceAdversarialScripted replays hand-crafted pick
// sequences that maximize reordering pressure on a small ring: long
// scripted prefixes force deep buffering before unlocking cascades.
func TestEngineEquivalenceAdversarialScripted(t *testing.T) {
	g := sharegraph.Ring(6)
	script := workload.SharedOnly(g, 120, 9)
	// Alternate newest/oldest/middle picks to interleave op issuance with
	// badly ordered deliveries.
	picks := make([]int, 0, 600)
	for i := 0; i < 200; i++ {
		picks = append(picks, i%13, (i*7)%11, 0)
	}
	for _, pair := range append(enginePairs(), ringRelayPairs(t)...) {
		pi, err := pair.indexed(g)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := pair.reference(g)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(pair.name, func(t *testing.T) {
			ri, err := Run(Config{Graph: g, Protocol: pi, Script: script,
				Sched: transport.NewScripted(picks...), TrackFalseDeps: true})
			if err != nil {
				t.Fatal(err)
			}
			rr, err := Run(Config{Graph: g, Protocol: pr, Script: script,
				Sched: transport.NewScripted(picks...), TrackFalseDeps: true})
			if err != nil {
				t.Fatal(err)
			}
			ri.Protocol, rr.Protocol = "", ""
			if !reflect.DeepEqual(ri, rr) {
				t.Errorf("engines diverge:\nindexed:   %+v\nreference: %+v", ri, rr)
			}
		})
	}
}

// TestEngineEquivalenceRouted covers the Section 5 dummy-register routing
// variant: metadata-only updates must flow through the indexed queues
// exactly as through the reference engine.
func TestEngineEquivalenceRouted(t *testing.T) {
	eff, err := sharegraph.New([][]sharegraph.Register{
		{"x", "y"}, {"x", "y", "z"}, {"x", "z"}, {"x", "w"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replica 3's copy of x is a dummy: it receives metadata-only updates.
	realStore := func(r sharegraph.ReplicaID, x sharegraph.Register) bool {
		return !(r == 3 && x == "x")
	}
	pi, err := core.NewEdgeIndexedRouted(eff, realStore, "routed")
	if err != nil {
		t.Fatal(err)
	}
	prBase, err := core.NewEdgeIndexedRouted(eff, realStore, "routed-naive")
	if err != nil {
		t.Fatal(err)
	}
	pr := core.AsNaive(prBase)
	// Writes only at genuine holders.
	var script workload.Script
	for i := 0; i < 200; i++ {
		reg := []sharegraph.Register{"x", "y", "z", "w"}[i%4]
		holder := []sharegraph.ReplicaID{0, 1, 2, 3}[i%4]
		if reg == "x" {
			holder = sharegraph.ReplicaID(i % 3) // skip the dummy holder
		}
		script = append(script, workload.Op{Replica: holder, Reg: reg})
	}
	for schedName, mkSched := range equivSchedulers() {
		t.Run(schedName, func(t *testing.T) {
			ri, err := Run(Config{Graph: eff, Protocol: pi, Script: script, Sched: mkSched()})
			if err != nil {
				t.Fatal(err)
			}
			rr, err := Run(Config{Graph: eff, Protocol: pr, Script: script, Sched: mkSched()})
			if err != nil {
				t.Fatal(err)
			}
			ri.Protocol, rr.Protocol = "", ""
			if !reflect.DeepEqual(ri, rr) {
				t.Errorf("routed engines diverge:\nindexed:   %+v\nreference: %+v", ri, rr)
			}
		})
	}
}
