package prcc

// Steady-state allocation assertions for the emit-based write fanout: a
// full write → emit → copy-meta → deliver → recycle cycle — the hot path
// of both live runtimes — must not allocate once caches and freelists are
// warm, for the paper's algorithm and every baseline. This is the
// acceptance check for the core.Sink contract: envelope slices, encoded
// metadata and recipient lists are recycled, never reallocated per write.

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/transport"
)

// deliverySink mimics the runtimes' sinks: it copies the node-owned Meta
// through a recycling pool, hands the envelope straight to its
// destination node, and returns the buffer once ingested. Immediate
// in-order delivery keeps every update applicable on arrival, so the
// cycle is pure steady state.
type deliverySink struct {
	nodes []core.Node
	meta  transport.BytePool
}

func (s *deliverySink) Emit(env core.Envelope) {
	env.Meta = s.meta.Copy(env.Meta)
	s.nodes[env.To].HandleMessage(env, s)
	s.meta.Put(env.Meta)
}

// fanoutProtocols builds every protocol the emit contract covers over one
// topology.
func fanoutProtocols(tb testing.TB, g *sharegraph.Graph) []core.Protocol {
	tb.Helper()
	edge, err := core.NewEdgeIndexed(g)
	if err != nil {
		tb.Fatal(err)
	}
	return []core.Protocol{
		edge,
		baseline.NewFIFOOnly(g),
		baseline.NewNaiveVector(g),
		baseline.NewBroadcast(g),
		baseline.NewMatrix(g),
	}
}

// writeCycle builds the warmed write→deliver closure for one protocol.
func writeCycle(tb testing.TB, p core.Protocol) func() {
	tb.Helper()
	nodes, err := p.NewNodes()
	if err != nil {
		tb.Fatal(err)
	}
	sink := &deliverySink{nodes: nodes}
	id := causality.UpdateID(0)
	v := core.Value(0)
	cycle := func() {
		v++
		if err := nodes[0].HandleWrite("ring0", v, id, sink); err != nil {
			tb.Fatalf("%s: write: %v", p.Name(), err)
		}
		id++
	}
	// Warm every cache on the path: recipient lists, metadata scratch,
	// decode freelists, ingest queues, the byte pool.
	for i := 0; i < 512; i++ {
		cycle()
	}
	return cycle
}

func TestWriteFanoutSteadyStateZeroAlloc(t *testing.T) {
	g := sharegraph.Ring(8)
	for _, p := range fanoutProtocols(t, g) {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			cycle := writeCycle(t, p)
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Errorf("write fanout allocates %.2f objects/op in steady state, want 0", avg)
			}
		})
	}
}

// BenchmarkWriteFanout times the full steady-state write→deliver cycle
// per protocol and fails if it allocates — the benchmark-level assertion
// of the emit contract.
func BenchmarkWriteFanout(b *testing.B) {
	g := sharegraph.Ring(8)
	for _, p := range fanoutProtocols(b, g) {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			cycle := writeCycle(b, p)
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				b.Fatalf("write fanout allocates %.2f objects/op in steady state, want 0", avg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				cycle()
			}
		})
	}
}
