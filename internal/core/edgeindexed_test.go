package core

import (
	"errors"
	"testing"

	"repro/internal/causality"
	"repro/internal/sharegraph"
	"repro/internal/timestamp"
)

func newProto(t testing.TB, g *sharegraph.Graph) *EdgeIndexed {
	t.Helper()
	p, err := NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newNodes(t testing.TB, p Protocol) []Node {
	t.Helper()
	nodes, err := p.NewNodes()
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestWriteLocalApplyAndFanout(t *testing.T) {
	g := sharegraph.Fig5Example()
	p := newProto(t, g)
	nodes := newNodes(t, p)

	// Replica 0 writes y; y is stored at 0, 1 and 3 → two messages.
	envs, err := CollectWrite(nodes[0], "y", 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) != 2 {
		t.Fatalf("fanout = %d messages, want 2", len(envs))
	}
	dests := map[sharegraph.ReplicaID]bool{}
	for _, e := range envs {
		if e.From != 0 || e.Reg != "y" || e.Val != 42 || e.MetaOnly {
			t.Errorf("bad envelope %+v", e)
		}
		if len(e.Meta) == 0 {
			t.Error("empty metadata")
		}
		dests[e.To] = true
	}
	if !dests[1] || !dests[3] {
		t.Errorf("destinations = %v, want {1,3}", dests)
	}
	// Local copy visible immediately (step 2(i)).
	if v, ok := nodes[0].Read("y"); !ok || v != 42 {
		t.Errorf("Read(y) = (%d,%v), want (42,true)", v, ok)
	}
}

func TestWriteUnstoredRegister(t *testing.T) {
	g := sharegraph.Fig3Example()
	nodes := newNodes(t, newProto(t, g))
	_, err := CollectWrite(nodes[0], "z", 1, 0) // z not at replica 0
	var nse *NotStoredError
	if !errors.As(err, &nse) {
		t.Fatalf("err = %v, want NotStoredError", err)
	}
	if nse.Replica != 0 || nse.Register != "z" {
		t.Errorf("NotStoredError fields = %+v", nse)
	}
	if nse.Error() == "" {
		t.Error("empty error string")
	}
}

func TestPendingDrainCascade(t *testing.T) {
	// Two sequential updates from 0 arrive at 1 in reverse order; applying
	// the first must cascade-apply the buffered second in the same call.
	g := sharegraph.Fig3Example()
	nodes := newNodes(t, newProto(t, g))
	e1, err := CollectWrite(nodes[0], "x", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := CollectWrite(nodes[0], "x", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := CollectMessage(nodes[1], e2[0]); len(got) != 0 {
		t.Fatalf("second update applied out of order: %v", got)
	}
	if nodes[1].PendingCount() != 1 {
		t.Fatalf("PendingCount = %d, want 1", nodes[1].PendingCount())
	}
	ids := nodes[1].PendingOracleIDs()
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("PendingOracleIDs = %v", ids)
	}
	applied, _ := CollectMessage(nodes[1], e1[0])
	if len(applied) != 2 {
		t.Fatalf("cascade applied %d updates, want 2", len(applied))
	}
	if applied[0].OracleID != 0 || applied[1].OracleID != 1 {
		t.Errorf("apply order = %v", applied)
	}
	if v, _ := nodes[1].Read("x"); v != 2 {
		t.Errorf("final x = %d, want 2", v)
	}
	if nodes[1].PendingCount() != 0 {
		t.Error("pending not drained")
	}
}

func TestCorruptMetadataDropped(t *testing.T) {
	g := sharegraph.Fig3Example()
	for _, build := range []func(*sharegraph.Graph) (*EdgeIndexed, error){
		NewEdgeIndexed, NewEdgeIndexedNaive,
	} {
		p, err := build(g)
		if err != nil {
			t.Fatal(err)
		}
		nodes := newNodes(t, p)
		valid, err := CollectWrite(nodes[0], "x", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for name, env := range map[string]Envelope{
			"corrupt bytes":  {From: 0, To: 1, Reg: "x", Meta: []byte{0xff}},
			"invalid sender": {From: 99, To: 1, Reg: "x", Meta: valid[0].Meta},
			"negative sender": {From: -1, To: 1, Reg: "x",
				Meta: timestamp.Encode(timestamp.Vec{1, 2})},
			"wrong length": {From: 0, To: 1, Reg: "x",
				Meta: timestamp.Encode(timestamp.Vec{})},
		} {
			applied, _ := CollectMessage(nodes[1], env)
			if len(applied) != 0 || nodes[1].PendingCount() != 0 {
				t.Errorf("%s: %s message was not dropped", p.Name(), name)
			}
		}
	}
}

func TestMetadataEntriesMatchTimestampGraph(t *testing.T) {
	g := sharegraph.Fig5Example()
	p := newProto(t, g)
	nodes := newNodes(t, p)
	for i, n := range nodes {
		want := p.Space().Len(sharegraph.ReplicaID(i))
		if n.MetadataEntries() != want {
			t.Errorf("replica %d: MetadataEntries = %d, want |E_%d| = %d",
				i, n.MetadataEntries(), i, want)
		}
	}
}

func TestNodeTimestampClone(t *testing.T) {
	g := sharegraph.Fig3Example()
	nodes := newNodes(t, newProto(t, g))
	en := nodes[0].(*replica)
	ts := en.Timestamp()
	if len(ts) == 0 {
		t.Fatal("empty timestamp")
	}
	ts[0] = 999
	if en.τ[0] == 999 {
		t.Error("Timestamp() shares storage with the node")
	}
	if nodes[0].ID() != 0 {
		t.Errorf("ID = %d", nodes[0].ID())
	}
	if newProto(t, g).Name() != "edge-indexed" {
		t.Error("wrong protocol name")
	}
}

func TestReadUnstored(t *testing.T) {
	g := sharegraph.Fig3Example()
	nodes := newNodes(t, newProto(t, g))
	if _, ok := nodes[0].Read("z"); ok {
		t.Error("Read of unstored register reported ok")
	}
}

func BenchmarkHandleWriteFanout(b *testing.B) {
	g := sharegraph.FullReplication(8, 4)
	nodes := newNodes(b, newProto(b, g))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		// The emit contract makes the steady-state fanout allocation-free;
		// a discard sink measures the node's own cost alone.
		if err := nodes[0].HandleWrite("r0", Value(n), 0, DiscardSink{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHandleMessage(b *testing.B) {
	g := sharegraph.Fig3Example()
	nodes := newNodes(b, newProto(b, g))
	envs, err := CollectWrite(nodes[0], "x", 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	recv := nodes[1].(*replica)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		recv.HandleMessage(envs[0], DiscardSink{})
		// Reset the timestamp so the predicate outcome stays constant; the
		// indexed queues self-clean on apply (asserted once, cheaply).
		if recv.PendingCount() != 0 {
			b.Fatal("queue did not drain")
		}
		recv.τ = recv.clock.Zero()
	}
}

// BenchmarkHandleMessageReordered delivers a window of updates from one
// sender of a wide graph (RandomK(32,96,3,7), |E_0| = 434) in reverse
// order to a fresh node, as a node of a new instance meets a backlog:
// every update but the last to arrive waits. B/op is the window's cost,
// node construction included.
func BenchmarkHandleMessageReordered(b *testing.B) {
	g := sharegraph.RandomK(32, 96, 3, 7)
	p := newProto(b, g)
	nodes := newNodes(b, p)
	x := g.Stores(0).Sorted()[0]
	const window = 32
	envs := make([]Envelope, window)
	for i := range envs {
		out, err := CollectWrite(nodes[0], x, Value(i), causality.UpdateID(i))
		if err != nil || len(out) == 0 {
			b.Fatalf("write to %s: %v %v", x, err, out)
		}
		envs[window-1-i] = out[0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		recv := p.NewNode(envs[0].To, nil)
		for _, env := range envs {
			recv.HandleMessage(env, DiscardSink{})
		}
		if recv.PendingCount() != 0 {
			b.Fatal("window did not drain")
		}
	}
}

// TestRedeliveredUpdateParksForever exercises the engine's dead buffer:
// a replayed update whose sequence number is already behind the gate can
// never satisfy predicate J's strict equality, so it must stay buffered
// (as the reference engine keeps it) without wedging the live queues.
func TestRedeliveredUpdateParksForever(t *testing.T) {
	g := sharegraph.Fig3Example()
	for _, build := range []func(*sharegraph.Graph) (*EdgeIndexed, error){
		NewEdgeIndexed, NewEdgeIndexedNaive,
	} {
		p, err := build(g)
		if err != nil {
			t.Fatal(err)
		}
		nodes := newNodes(t, p)
		e1, err := CollectWrite(nodes[0], "x", 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if applied, _ := CollectMessage(nodes[1], e1[0]); len(applied) != 1 {
			t.Fatalf("%s: first delivery applied %d updates", p.Name(), len(applied))
		}
		// Replay the same envelope: seq 1 is now ≤ the gate.
		if applied, _ := CollectMessage(nodes[1], e1[0]); len(applied) != 0 {
			t.Fatalf("%s: replay was applied", p.Name())
		}
		if got := nodes[1].PendingCount(); got != 1 {
			t.Fatalf("%s: PendingCount = %d, want 1 (parked replay)", p.Name(), got)
		}
		// Later traffic keeps flowing past the parked replay.
		e2, err := CollectWrite(nodes[0], "x", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if applied, _ := CollectMessage(nodes[1], e2[0]); len(applied) != 1 {
			t.Fatalf("%s: delivery after replay did not apply", p.Name())
		}
		ids := nodes[1].PendingOracleIDs()
		if len(ids) != 1 || ids[0] != 0 {
			t.Fatalf("%s: PendingOracleIDs = %v, want [0]", p.Name(), ids)
		}
	}
}

// TestIndexedIngestAllocsFlat asserts the acceptance criterion that
// buffering cost does not scale with the pending-buffer size: allocations
// per ingested message stay flat as the out-of-order window grows 8×.
func TestIndexedIngestAllocsFlat(t *testing.T) {
	g := sharegraph.Line(2)
	p := newProto(t, g)
	perMsg := func(window int) float64 {
		nodes := newNodes(t, p)
		envs := make([]Envelope, window)
		for i := 0; i < window; i++ {
			out, err := CollectWrite(nodes[0], "seg0", Value(i), causality.UpdateID(i))
			if err != nil || len(out) != 1 {
				t.Fatalf("write %d: %v", i, err)
			}
			envs[window-1-i] = out[0]
		}
		allocs := testing.AllocsPerRun(10, func() {
			recv, err := p.NewNodes()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range envs {
				CollectMessage(recv[1], e)
			}
			if recv[1].PendingCount() != 0 {
				t.Fatal("window did not drain")
			}
		})
		return allocs / float64(window)
	}
	small, large := perMsg(128), perMsg(1024)
	if large > small*1.5+0.5 {
		t.Errorf("allocs per message grew with pending window: %.2f at 128 vs %.2f at 1024", small, large)
	}
}

// TestRoutedDummySemantics exercises the Section 5 dummy-register routing
// variant at the node level: metadata-only fanout to dummy holders, which
// merge timestamps but never expose values or accept operations.
func TestRoutedDummySemantics(t *testing.T) {
	// Effective graph: x lives at 0, 1 and (as a dummy) 2.
	eff, err := sharegraph.New([][]sharegraph.Register{
		{"x"}, {"x", "y"}, {"x", "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	realStore := func(r sharegraph.ReplicaID, x sharegraph.Register) bool {
		return !(r == 2 && x == "x") // replica 2's copy of x is a dummy
	}
	p, err := NewEdgeIndexedRouted(eff, realStore, "routed")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "routed" {
		t.Error("bad name")
	}
	nodes := newNodes(t, p)
	envs, err := CollectWrite(nodes[0], "x", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawData, sawMeta bool
	for _, e := range envs {
		switch e.To {
		case 1:
			sawData = !e.MetaOnly
		case 2:
			sawMeta = e.MetaOnly
		}
	}
	if !sawData || !sawMeta {
		t.Fatalf("fanout wrong: %+v", envs)
	}
	// The dummy holder merges but neither applies nor exposes the value.
	for _, e := range envs {
		if e.To != 2 {
			continue
		}
		applied, fwd := CollectMessage(nodes[2], e)
		if len(applied) != 0 || len(fwd) != 0 {
			t.Error("dummy delivery produced applies or forwards")
		}
	}
	if _, ok := nodes[2].Read("x"); ok {
		t.Error("dummy copy readable")
	}
	if _, err := CollectWrite(nodes[2], "x", 1, 1); err == nil {
		t.Error("write accepted at dummy holder")
	}
	if v, ok := nodes[2].Read("y"); !ok || v != 0 {
		t.Error("genuine register unreadable at dummy holder")
	}
}
