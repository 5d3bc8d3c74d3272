package optimize

import (
	"testing"

	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// FuzzPlacementMove drives random break/un-break move sequences over
// random topologies and checks the search's core invariant: every move
// toggle accepts yields a placement that validates — each route is a
// simple path visiting all holders and has no bypass, and the effective
// graph round-trips through NewFromSets connected — and whose relay
// protocol the oracle finds causally consistent under random delivery.
// A violation here would let the search hand a disconnected graph to the
// timestamp machinery or an unsafe relay to a live cluster.
func FuzzPlacementMove(f *testing.F) {
	f.Add(int64(7), uint8(8), []byte{0, 1, 2, 0})
	f.Add(int64(3), uint8(5), []byte{4, 4, 4})
	f.Add(int64(11), uint8(12), []byte{9, 0, 9, 3, 1})
	f.Fuzz(func(t *testing.T, seed int64, size uint8, ops []byte) {
		n := int(size%14) + 3
		var g *sharegraph.Graph
		if seed%2 == 0 {
			g = sharegraph.Ring(n)
		} else {
			g = sharegraph.RandomK(n, 3*n, 3, seed)
		}
		regs := g.Registers()
		if len(regs) == 0 {
			return
		}
		p := NewPlacement(g)
		for _, op := range ops {
			q, ok := p.toggle(regs[int(op)%len(regs)])
			if !ok {
				continue
			}
			p = q
			if err := p.Validate(); err != nil {
				t.Fatalf("accepted move broke the placement invariant: %v (broken=%v)",
					err, p.BrokenRegisters())
			}
			eff, err := p.EffectiveGraph()
			if err != nil {
				t.Fatalf("effective graph: %v", err)
			}
			if !eff.Connected() {
				t.Fatalf("effective graph disconnected with broken=%v", p.BrokenRegisters())
			}
		}
		pp, err := p.Protocol("fuzzed")
		if err != nil {
			t.Fatalf("protocol: %v", err)
		}
		res, err := sim.Run(sim.Config{
			Graph: g, Protocol: pp, Script: workload.OwnerWrites(g, 120, seed),
			Sched: transport.NewRandom(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok() {
			t.Fatalf("broken=%v: relays violate causal consistency: %v",
				p.BrokenRegisters(), res.Violations)
		}
	})
}
