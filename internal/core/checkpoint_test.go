package core

import (
	"reflect"
	"testing"

	"repro/internal/causality"
	"repro/internal/sharegraph"
)

// TestNodeCheckpointRoundtrip pins state transfer at the node level:
// snapshot a replica mid-run — with a buffered undeliverable update —
// install into a fresh node, and require identical state: timestamp,
// registers, pending set, and identical behaviour on the next input.
func TestNodeCheckpointRoundtrip(t *testing.T) {
	g := sharegraph.Fig5Example()
	p, err := NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := p.NewNodes()
	if err != nil {
		t.Fatal(err)
	}
	tracker := causality.NewTracker(g)

	write := func(r sharegraph.ReplicaID, x sharegraph.Register, v Value) []Envelope {
		t.Helper()
		id := tracker.OnIssue(r, x)
		envs, err := CollectWrite(nodes[r], x, v, id)
		if err != nil {
			t.Fatal(err)
		}
		return envs
	}
	deliverTo := func(envs []Envelope, to sharegraph.ReplicaID) []Applied {
		t.Helper()
		for _, e := range envs {
			if e.To == to {
				applied, _ := CollectMessage(nodes[to], e)
				return applied
			}
		}
		t.Fatalf("no envelope for %d", to)
		return nil
	}

	// Stage the Theorem 8 chain far enough that replica 2 holds a
	// buffered update: ux arrives before its transitive dependency u0.
	u0 := write(3, "z", 10)
	u1 := write(3, "w", 11)
	deliverTo(u1, 0)
	uy := write(0, "y", 12)
	deliverTo(uy, 1)
	ux := write(1, "x", 13)
	deliverTo(ux, 2) // buffered: u0 not yet applied at 2

	victim := nodes[2].(Snapshotter)
	if victim.PendingCount() != 1 {
		t.Fatalf("setup: pending at replica 2 = %d, want 1", victim.PendingCount())
	}
	ck := victim.Snapshot()

	fresh, err := p.NewNodes()
	if err != nil {
		t.Fatal(err)
	}
	clone := fresh[2].(Snapshotter)
	applied, err := clone.Install(ck)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 0 {
		t.Fatalf("install applied %d updates; buffered updates must stay buffered", len(applied))
	}
	if clone.PendingCount() != 1 {
		t.Fatalf("installed pending = %d, want 1", clone.PendingCount())
	}
	origVec := nodes[2].(*replica).Timestamp()
	cloneVec := clone.(*replica).Timestamp()
	if !origVec.Equal(cloneVec) {
		t.Fatalf("timestamps diverge: %v vs %v", origVec, cloneVec)
	}

	// Same next input → same behaviour: delivering u0 unblocks ux on
	// both the original and the restored clone.
	bothApplied := func(n Node) []Applied {
		for _, e := range u0 {
			if e.To == 2 {
				applied, _ := CollectMessage(n, e)
				return append([]Applied(nil), applied...)
			}
		}
		t.Fatal("u0 has no envelope for replica 2")
		return nil
	}
	a1 := bothApplied(nodes[2])
	a2 := bothApplied(clone)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("post-restore applies diverge: %v vs %v", a1, a2)
	}
	if len(a1) != 2 {
		t.Fatalf("delivering u0 should apply u0 then ux, got %v", a1)
	}
	v1, _ := nodes[2].Read("x")
	v2, _ := clone.Read("x")
	if v1 != v2 {
		t.Fatalf("register x diverges: %v vs %v", v1, v2)
	}

	// Shape mismatches are rejected, not corrupted.
	if _, err := clone.Install(&NodeCheckpoint{Replica: 0}); err == nil {
		t.Error("installing another replica's checkpoint should fail")
	}
}

// TestOracleCheckpointRestore pins the oracle side: export, advance,
// restore, and require rolled-back applied state plus rebuilt
// not-yet-applied queues that re-demand post-checkpoint updates. The
// "persistent" case also requires the checkpoint to outlive its restore:
// advancing again and restoring the same checkpoint a second time rolls
// back to the same state.
func TestOracleCheckpointRestore(t *testing.T) {
	t.Run("persistent", func(t *testing.T) {
		g := sharegraph.Ring(4)
		tr := causality.NewTracker(g)
		regs := g.Stores(0).Sorted()
		x := regs[0]
		holders := g.Holders(x)

		u1 := tr.OnIssue(0, x)
		for _, h := range holders {
			if h != 0 {
				tr.OnApply(h, u1)
			}
		}
		ck := tr.ExportCheckpoint(0)

		u2 := tr.OnIssue(0, x) // post-checkpoint issue at 0
		if !tr.Applied(0, u2) {
			t.Fatal("issue should apply locally")
		}
		if err := tr.RestoreCheckpoint(0, ck); err != nil {
			t.Fatal(err)
		}
		if !tr.Applied(0, u1) {
			t.Error("pre-checkpoint apply lost in restore")
		}
		if tr.Applied(0, u2) {
			t.Error("post-checkpoint apply survived restore")
		}
		// Replaying u2 must be accepted cleanly (it is missing again).
		tr.OnApply(0, u2)
		if !tr.Applied(0, u2) || !tr.Ok() {
			t.Fatalf("replay of rolled-back issue rejected: %v", tr.Violations())
		}
		// The same checkpoint restores again after further progress.
		if err := tr.RestoreCheckpoint(0, ck); err != nil {
			t.Fatal(err)
		}
		if !tr.Applied(0, u1) || tr.Applied(0, u2) {
			t.Errorf("second restore: applied(u1)=%v applied(u2)=%v, want true, false",
				tr.Applied(0, u1), tr.Applied(0, u2))
		}
		tr.OnApply(0, u2)
		if !tr.Ok() {
			t.Fatalf("replay after second restore rejected: %v", tr.Violations())
		}
		if err := tr.RestoreCheckpoint(1, ck); err == nil {
			t.Error("restoring at the wrong replica should fail")
		}
	})
}
