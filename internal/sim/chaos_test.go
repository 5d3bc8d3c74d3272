package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
	"repro/internal/workload"
)

// chaosScale picks the soak size: the full ISSUE-mandated Ring(32)×10k
// normally, a smaller ring under -short so the race-enabled CI smoke
// stays fast.
func chaosScale(t *testing.T) (n, ops int) {
	if testing.Short() {
		return 8, 2000
	}
	return 32, 10000
}

// TestChaosSoak is the headline robustness run: a ring cluster under
// 1% loss, 1% duplication and a scheduled partition+heal, audited by
// the oracle as judge. Transient faults are no excuse — the pass bar is
// zero safety violations AND full eventual liveness (every update
// applied everywhere it belongs) once the partition heals.
func TestChaosSoak(t *testing.T) {
	n, ops := chaosScale(t)
	g := sharegraph.Ring(n)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunChaos(ChaosConfig{
		Graph:    g,
		Protocol: p,
		Script:   workload.OwnerWrites(g, ops, 61),
		Plan: rt.FaultPlan{
			Seed:    7,
			Default: rt.EdgeFault{Drop: 0.01, Dup: 0.01},
		},
		Partition:     true,
		PartitionA:    0,
		PartitionB:    sharegraph.ReplicaID(n / 2),
		PartitionHeal: 3 * time.Millisecond,
		Opts:          []ClusterOption{WithWorkers(8), WithSeed(11)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("oracle verdicts under chaos (want none):\n%v", res.Violations)
	}
	// PendingTotal is NOT asserted zero here: duplicated envelopes are
	// dead-parked by the per-sender ingest queues (never deliverable,
	// never applied), and they stay counted as buffered. Liveness is the
	// oracle's call — CheckLiveness demands every genuine update applied
	// everywhere it belongs, and that passed above.
	if res.Dropped == 0 || res.Duped == 0 {
		t.Errorf("chaos did not bite: dropped=%d duped=%d of %d messages",
			res.Dropped, res.Duped, res.MessagesSent)
	}
	// The workload pins one writer per register, so the final state is
	// schedule-independent; it must match a fault-free run bit for bit.
	clean, err := NewCluster(g, p, WithWorkers(8), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	if v := clean.RunScript(workload.OwnerWrites(g, ops, 61)); len(v) != 0 {
		t.Fatalf("fault-free reference run has verdicts: %v", v)
	}
	if want, got := clean.StateSnapshot(), res.FinalState; !reflect.DeepEqual(want, got) {
		t.Fatal("chaos run converged to a different final state than the fault-free run")
	}
}

// TestChaosCrashRestartDifferential crashes a replica mid-workload and
// restarts it via state transfer (checkpoint + retention-log replay),
// then pins the recovered cluster's final state to a fault-free run of
// the same script. The crash window overlaps live traffic: updates
// addressed to the victim park at the transport and at the node
// boundary, and must all land after recovery.
func TestChaosCrashRestartDifferential(t *testing.T) {
	g := sharegraph.Ring(8)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	script := workload.OwnerWrites(g, 1600, 29)
	res, err := RunChaos(ChaosConfig{
		Graph:    g,
		Protocol: p,
		Script:   script,
		Plan: rt.FaultPlan{
			Seed:    3,
			Default: rt.EdgeFault{Drop: 0.02},
		},
		Crash:        true,
		CrashReplica: 5,
		Opts:         []ClusterOption{WithWorkers(4), WithSeed(17)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("oracle verdicts after crash/restart (want none):\n%v", res.Violations)
	}
	if res.PendingTotal != 0 {
		t.Errorf("quiesced with %d updates still buffered", res.PendingTotal)
	}
	clean, err := NewCluster(g, p, WithWorkers(4), WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	if v := clean.RunScript(script); len(v) != 0 {
		t.Fatalf("fault-free reference run has verdicts: %v", v)
	}
	if want, got := clean.StateSnapshot(), res.FinalState; !reflect.DeepEqual(want, got) {
		t.Fatal("recovered cluster diverged from the fault-free final state")
	}
}

// TestChaosCrashGuards pins the client-facing contract while a replica
// is down, and the recovery preconditions.
func TestChaosCrashGuards(t *testing.T) {
	g := sharegraph.Ring(4)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, p, WithChaos(rt.FaultPlan{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := g.Stores(1).Sorted()[0]
	if err := c.Restart(1); err == nil {
		t.Error("restarting a live replica should fail")
	}
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(1, reg, 9); err == nil {
		t.Error("write at a crashed replica should fail")
	}
	if _, ok := c.Read(1, reg); ok {
		t.Error("read at a crashed replica should fail")
	}
	if err := c.Crash(1); err == nil {
		t.Error("double crash should fail")
	}
	if err := c.Checkpoint(1); err == nil {
		t.Error("checkpointing a crashed replica should fail")
	}
	if err := c.Restart(1); err == nil {
		t.Error("restart without a prior checkpoint should fail")
	}
	// With a checkpoint the full cycle works, twice over: the checkpoint
	// is refreshed on restore, so a second crash recovers from the first
	// recovery's basis.
	c2, err := NewCluster(g, p, WithChaos(rt.FaultPlan{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for round := 0; round < 2; round++ {
		if err := c2.Checkpoint(1); err != nil {
			t.Fatal(err)
		}
		if err := c2.Write(1, reg, core.Value(10+round)); err != nil {
			t.Fatal(err)
		}
		if err := c2.Crash(1); err != nil {
			t.Fatal(err)
		}
		if err := c2.Restart(1); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if v, ok := c2.Read(1, reg); !ok || v != core.Value(10+round) {
			t.Fatalf("round %d: post-restart read = %v,%v; want %d", round, v, ok, 10+round)
		}
	}
	c2.Quiesce()
	if tr := c2.Tracker(); tr != nil {
		tr.CheckLiveness()
		if v := tr.Violations(); len(v) != 0 {
			t.Fatalf("verdicts after repeated crash cycles: %v", v)
		}
	}
}

// TestChaosNodeBoundaryPark pins the one place a crashed replica's
// messages wait: a neighbour's update to a crashed replica is delivered,
// parks at the node boundary with its Meta, counts in Metrics().Parked,
// and applies once Restart re-forwards it.
func TestChaosNodeBoundaryPark(t *testing.T) {
	g := sharegraph.Ring(4)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, p, WithChaos(rt.FaultPlan{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	var reg sharegraph.Register
	writer := sharegraph.ReplicaID(-1)
	for _, x := range g.Stores(1).Sorted() {
		for _, h := range g.Holders(x) {
			if h != 1 {
				reg, writer = x, h
			}
		}
	}
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	sp := c.space
	state, pending := sp.State()[1], sp.Pending(1)

	if err := c.Write(writer, reg, 77); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
	if got := sp.State()[1]; !reflect.DeepEqual(got, state) || sp.Pending(1) != pending {
		t.Fatalf("down replica changed: state %v pending %d, want %v and %d", got, sp.Pending(1), state, pending)
	}
	parked := sp.Parked()
	if parked == 0 {
		t.Fatal("no delivery parked at the node boundary")
	}
	if got, want := c.Metrics().Parked, int64(parked+c.PendingTotal()); got != want {
		t.Errorf("Metrics().Parked = %d while replica 1 is down, want %d", got, want)
	}

	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
	if v, ok := c.Read(1, reg); !ok || v != 77 {
		t.Errorf("Read(1, %s) = (%d, %v) after Restart, want (77, true)", reg, v, ok)
	}
	if got := c.Metrics().Parked; got != 0 {
		t.Errorf("Metrics().Parked = %d after Restart and Quiesce, want 0", got)
	}
	if vs := sp.Audit(); len(vs) != 0 {
		t.Errorf("oracle verdicts after the parked delivery: %v", vs)
	}
}

// TestChaosDisabledGuards pins that recovery controls refuse to operate
// on a cluster built without WithChaos rather than panicking.
func TestChaosDisabledGuards(t *testing.T) {
	g := sharegraph.Ring(3)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Faults() != nil {
		t.Error("fault injector present without WithChaos")
	}
	if err := c.Crash(0); err == nil {
		t.Error("Crash should fail without WithChaos")
	}
	if err := c.Partition(0, 1, 0); err == nil {
		t.Error("Partition should fail without WithChaos")
	}
	if err := c.Checkpoint(0); err == nil {
		t.Error("Checkpoint should fail without WithChaos")
	}
}
