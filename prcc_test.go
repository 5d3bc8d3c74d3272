package prcc

import (
	"fmt"
	"strings"
	"testing"
)

func fig3System(t testing.TB) *System {
	t.Helper()
	sys, err := New([][]Register{{"x"}, {"x", "y"}, {"y", "z"}, {"z"}})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestQuickstartFlow(t *testing.T) {
	sys := fig3System(t)
	if sys.NumReplicas() != 4 {
		t.Fatalf("NumReplicas = %d", sys.NumReplicas())
	}
	if !sys.Stores(1, "y") || sys.Stores(0, "y") {
		t.Error("Stores wrong")
	}
	if hs := sys.Holders("y"); len(hs) != 2 || hs[0] != 1 || hs[1] != 2 {
		t.Errorf("Holders(y) = %v", hs)
	}
	if len(sys.Registers()) != 3 {
		t.Errorf("Registers = %v", sys.Registers())
	}
	if sys.MetadataEntries(1) != 4 { // path graph: 2 neighbours × 2 directions
		t.Errorf("MetadataEntries(1) = %d, want 4", sys.MetadataEntries(1))
	}
	if edges := sys.TrackedEdges(0); len(edges) != 2 {
		t.Errorf("TrackedEdges(0) = %v", edges)
	}
	if !strings.Contains(sys.ShareGraph(), "share graph") {
		t.Error("ShareGraph render empty")
	}

	cluster, err := sys.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Write(1, "y", 42); err != nil {
		t.Fatal(err)
	}
	cluster.Sync()
	if v, ok := cluster.Read(2, "y"); !ok || v != 42 {
		t.Errorf("Read(2,y) = (%d,%v), want (42,true)", v, ok)
	}
	if err := cluster.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}
	if m := cluster.Metrics(); m.Messages == 0 || m.MetaBytes == 0 {
		t.Errorf("Metrics = (%d,%d)", m.Messages, m.MetaBytes)
	}
	if err := cluster.Write(0, "zzz", 1); err == nil {
		t.Error("write to unstored register accepted")
	}
}

func TestSimulateProtocols(t *testing.T) {
	sys := fig3System(t)
	for _, kind := range []ProtocolKind{EdgeIndexedProtocol, MatrixProtocol, BroadcastProtocol} {
		rep, err := sys.Simulate(SimOptions{Protocol: kind, Ops: 100, Seed: 3, TrackFalseDeps: true})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Errorf("%v: violations %v", kind, rep.Violations)
		}
		if rep.Writes == 0 || rep.Messages == 0 {
			t.Errorf("%v: empty run %+v", kind, rep)
		}
		if rep.AvgMetaBytes <= 0 {
			t.Errorf("%v: AvgMetaBytes = %v", kind, rep.AvgMetaBytes)
		}
	}
	// The unsafe/non-live baselines must be runnable too (their failures
	// are the experiment).
	if _, err := sys.Simulate(SimOptions{Protocol: NaiveVectorProtocol, Ops: 50}); err != nil {
		t.Error(err)
	}
	if _, err := sys.Simulate(SimOptions{Protocol: FIFOOnlyProtocol, Ops: 50, Adversarial: true}); err != nil {
		t.Error(err)
	}
	if _, err := sys.Simulate(SimOptions{Protocol: ProtocolKind(99)}); err == nil {
		t.Error("unknown protocol accepted")
	}
	for _, k := range []ProtocolKind{EdgeIndexedProtocol, MatrixProtocol, BroadcastProtocol, NaiveVectorProtocol, FIFOOnlyProtocol, ProtocolKind(99)} {
		if k.String() == "" {
			t.Error("empty protocol name")
		}
	}
}

func TestRunClusterProtocols(t *testing.T) {
	sys := fig3System(t)
	for _, kind := range []ProtocolKind{EdgeIndexedProtocol, MatrixProtocol, BroadcastProtocol} {
		rep, err := sys.RunCluster(RunClusterOptions{
			Protocol: kind, Ops: 200, Seed: 5,
			Cluster: ClusterOptions{Workers: 3, InboxCapacity: 8, Seed: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Errorf("%v: live run not clean: stuck=%d violations=%v", kind, rep.StuckUpdates, rep.Violations)
		}
		if rep.Writes == 0 || rep.Messages == 0 || rep.MetaBytes == 0 {
			t.Errorf("%v: empty live run %+v", kind, rep)
		}
		if rep.Workers != 3 {
			t.Errorf("%v: Workers = %d, want 3", kind, rep.Workers)
		}
	}
	if _, err := sys.RunCluster(RunClusterOptions{Protocol: ProtocolKind(99)}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestClusterWithOptions(t *testing.T) {
	sys := fig3System(t)
	c, err := sys.ClusterWith(ClusterOptions{Workers: 2, InboxCapacity: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers() != 2 {
		t.Errorf("Workers = %d, want 2", c.Workers())
	}
	for i := 0; i < 50; i++ {
		if err := c.Write(1, "y", Value(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	if n := c.Outstanding(); n != 0 {
		t.Errorf("Outstanding after Sync = %d", n)
	}
	if err := c.Check(); err != nil {
		t.Error(err)
	}
	c.Close()
	if n := c.Outstanding(); n != 0 {
		t.Errorf("Outstanding after Close = %d", n)
	}
}

// TestSkipAudit covers the pure-throughput knob end to end: simulation
// and live cluster both run without the oracle, still moving data, and
// Check on an unaudited cluster reports nothing.
func TestSkipAudit(t *testing.T) {
	sys := fig3System(t)
	rep, err := sys.Simulate(SimOptions{Ops: 150, Seed: 4, SkipAudit: true, TrackFalseDeps: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 || rep.FalseDeps != 0 {
		t.Errorf("unaudited sim produced verdicts: %+v", rep)
	}
	if rep.Writes == 0 || rep.Applies == 0 {
		t.Errorf("unaudited sim moved no data: %+v", rep)
	}

	crep, err := sys.RunCluster(RunClusterOptions{
		Ops: 150, Seed: 4,
		Cluster: ClusterOptions{Workers: 2, SkipAudit: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(crep.Violations) != 0 {
		t.Errorf("unaudited cluster produced verdicts: %+v", crep)
	}
	if crep.Writes == 0 || crep.Messages == 0 {
		t.Errorf("unaudited cluster moved no data: %+v", crep)
	}

	c, err := sys.ClusterWith(ClusterOptions{SkipAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1, "y", 9); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	if v, ok := c.Read(2, "y"); !ok || v != 9 {
		t.Errorf("Read(2,y) = (%d,%v), want (9,true)", v, ok)
	}
	if err := c.Check(); err != nil {
		t.Errorf("Check on unaudited cluster: %v", err)
	}
}

// TestLiveClientServerWithOptions covers the unified options surface on
// the Appendix E live deployment.
func TestLiveClientServerWithOptions(t *testing.T) {
	cs, err := NewClientServer(
		[][]Register{{"a", "c"}, {"a"}, {"b"}, {"b", "c"}},
		[][]ReplicaID{{1, 2}, {3, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	live := cs.LiveWith(ClusterOptions{Workers: 2, InboxCapacity: 4, Seed: 3})
	defer live.Close()
	if live.Workers() != 2 {
		t.Errorf("Workers = %d, want 2", live.Workers())
	}
	alice := live.Client(0)
	for k := 1; k <= 10; k++ {
		if err := alice.Write("a", Value(k)); err != nil {
			t.Fatal(err)
		}
	}
	live.Sync()
	if n := live.Outstanding(); n != 0 {
		t.Errorf("Outstanding after Sync = %d", n)
	}
	if m := live.Metrics(); m.Updates == 0 || m.MetaBytes == 0 {
		t.Errorf("Metrics = (%d, %d)", m.Updates, m.MetaBytes)
	}
	if err := live.Check(); err != nil {
		t.Error(err)
	}
}

func TestCompressionAndLowerBound(t *testing.T) {
	sys := fig3System(t)
	for _, rep := range sys.Compression() {
		if rep.Compressed > rep.Entries {
			t.Errorf("replica %d: compressed %d > entries %d", rep.Replica, rep.Compressed, rep.Entries)
		}
	}
	lb := sys.LowerBound(1, 2)
	if !lb.Verified || !lb.Tight {
		t.Errorf("LowerBound(1,2) = %+v; path graphs are tight", lb)
	}
	if lb.Exponent != 4 || lb.Bits != 4 {
		t.Errorf("LowerBound(1,2) = %+v, want exponent 4", lb)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) accepted")
	}
}

func TestClientServerFacade(t *testing.T) {
	cs, err := NewClientServer(
		[][]Register{{"a", "c"}, {"a"}, {"b"}, {"b", "c"}},
		[][]ReplicaID{{1, 2}, {3, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if cs.ServerEntries(0) == 0 || cs.ClientEntries(0) == 0 {
		t.Error("empty timestamp dimensions")
	}
	rep, err := cs.Simulate([][]ClientOp{
		{{Reg: "a"}, {Reg: "b"}},
		{{Reg: "c"}, {Reg: "c", IsRead: true}},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Errorf("client-server run not clean: %+v", rep)
	}
	if rep.Requests != 4 || rep.Responses != 4 {
		t.Errorf("requests/responses = %d/%d", rep.Requests, rep.Responses)
	}
	if _, err := NewClientServer(nil, nil); err == nil {
		t.Error("empty stores accepted")
	}
	if _, err := NewClientServer([][]Register{{"a"}}, [][]ReplicaID{{9}}); err == nil {
		t.Error("invalid client assignment accepted")
	}
}

func TestLiveClientServerFacade(t *testing.T) {
	cs, err := NewClientServer(
		[][]Register{{"a", "c"}, {"a"}, {"b"}, {"b", "c"}},
		[][]ReplicaID{{1, 2}, {3, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	live := cs.Live()
	defer live.Close()
	alice := live.Client(0)
	bob := live.Client(1)
	if err := alice.Write("a", 7); err != nil {
		t.Fatal(err)
	}
	if err := alice.Write("b", 8); err != nil {
		t.Fatal(err)
	}
	if err := bob.Write("c", 9); err != nil {
		t.Fatal(err)
	}
	if v, err := bob.Read("c"); err != nil || v != 9 {
		t.Fatalf("Read(c) = (%d, %v), want 9", v, err)
	}
	live.Sync()
	if err := live.Check(); err != nil {
		t.Error(err)
	}
}

// TestClientServerOutOfRange pins the facade's client and replica
// ranges: a handle for a client outside [0,2) fails every operation with
// an error naming the range instead of panicking, and the entry counts
// of an unknown replica or client are 0.
func TestClientServerOutOfRange(t *testing.T) {
	cs, err := NewClientServer(
		[][]Register{{"a", "c"}, {"a"}, {"b"}, {"b", "c"}},
		[][]ReplicaID{{1, 2}, {3, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 4, 9} {
		if n := cs.ServerEntries(ReplicaID(i)); n != 0 {
			t.Errorf("ServerEntries(%d) = %d, want 0", i, n)
		}
	}
	for _, id := range []ClientID{-1, 2, 9} {
		if n := cs.ClientEntries(id); n != 0 {
			t.Errorf("ClientEntries(%d) = %d, want 0", id, n)
		}
	}
	live := cs.Live()
	defer live.Close()
	for _, id := range []ClientID{-1, 2, 5} {
		lc := live.Client(id)
		if err := lc.Write("a", 1); err == nil || !strings.Contains(err.Error(), "[0,2)") {
			t.Errorf("Client(%d).Write = %v, want an error naming [0,2)", id, err)
		}
		if _, err := lc.Read("a"); err == nil || !strings.Contains(err.Error(), "[0,2)") {
			t.Errorf("Client(%d).Read = %v, want an error naming [0,2)", id, err)
		}
	}
	if err := live.Client(1).Write("c", 3); err != nil {
		t.Errorf("in-range client after rejected ones: %v", err)
	}
}

// ringStores builds the Figure 13 ring placement as facade input:
// replica i shares ring<i> with replica (i+1) mod n, plus a private
// register each.
func ringStores(n int) [][]Register {
	stores := make([][]Register, n)
	for i := 0; i < n; i++ {
		prev := (i - 1 + n) % n
		stores[i] = []Register{
			Register(fmt.Sprintf("ring%d", prev)),
			Register(fmt.Sprintf("ring%d", i)),
			Register(fmt.Sprintf("priv%d", i)),
		}
	}
	return stores
}

// TestOptimizeAndReconfigure drives the whole facade loop: search a
// better placement for a ring, switch a live mid-run cluster onto it,
// and check causal consistency plus value survival across the fence.
func TestOptimizeAndReconfigure(t *testing.T) {
	sys, err := New(ringStores(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Optimize(OptimizeOptions{Seed: 1, CheckBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries >= res.BaseEntries {
		t.Fatalf("Optimize found no improvement: %d -> %d entries", res.BaseEntries, res.Entries)
	}
	if len(res.Bounds) == 0 || !res.Tight() {
		t.Errorf("lower-bound check: %d bounds, tight=%v", len(res.Bounds), res.Tight())
	}

	cluster, err := sys.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Write(1, "ring1", 11); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Write(3, "priv3", 33); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Reconfigure(res.Placement); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	// The old epoch's values survive the fence and the new epoch keeps
	// serving writes, including broken registers via their relay routes.
	if v, ok := cluster.Read(2, "ring1"); !ok || v != 11 {
		t.Errorf("Read(2, ring1) after reconfigure = (%d,%v), want (11,true)", v, ok)
	}
	for _, x := range sys.Registers() {
		hs := sys.Holders(x)
		if err := cluster.Write(hs[0], x, Value(100+len(x))); err != nil {
			t.Fatalf("post-reconfigure Write(%d, %s): %v", hs[0], x, err)
		}
	}
	cluster.Sync()
	for _, x := range sys.Registers() {
		for _, r := range sys.Holders(x) {
			if v, ok := cluster.Read(r, x); !ok || v != Value(100+len(x)) {
				t.Errorf("Read(%d, %s) = (%d,%v), want (%d,true)", r, x, v, ok, 100+len(x))
			}
		}
	}
	if err := cluster.Check(); err != nil {
		t.Errorf("Check after reconfigure: %v", err)
	}

	if err := cluster.Reconfigure(nil); err == nil {
		t.Error("Reconfigure(nil) accepted")
	}
}
