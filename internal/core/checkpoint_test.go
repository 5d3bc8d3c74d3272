package core

import (
	"reflect"
	"testing"

	"repro/internal/causality"
	"repro/internal/sharegraph"
	"repro/internal/timestamp"
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

// TestCheckpointBufferedForms round-trips a replica holding every form a
// buffered update takes: a head decoded into its sender's slot (no bytes
// kept), an out-of-order update (bytes kept), dead-parked duplicates of
// both and a stale replay. The checkpoint's pending metadata must decode
// to the vectors that were sent, and the restored node must then apply
// exactly what the uninterrupted one applies, after which both still
// export what was sent for the dead-parked updates. The reference drain,
// which keeps bytes only, runs the same script.
func TestCheckpointBufferedForms(t *testing.T) {
	p := newProto(t, sharegraph.FullReplication(3, 1))
	// pool[k] is value k+1 to replica 1, and depends on every update
	// before it. Replica 0 sends pool[0], [1], [3], [4] as its sequence
	// numbers 1–4, replica 2 sends pool[2], [5] as 1 and 2.
	pool := chainPool(t, p, 6)
	sent := make(map[causality.UpdateID]timestamp.Vec)
	for _, env := range pool {
		ts, err := timestamp.Decode(env.Meta)
		if err != nil {
			t.Fatal(err)
		}
		sent[env.OracleID] = ts
	}
	snapshot := func(what string, n *replica, pending int) *NodeCheckpoint {
		t.Helper()
		ck := n.Snapshot()
		if len(ck.Pending) != pending {
			t.Fatalf("%s: %d buffered updates, want %d", what, len(ck.Pending), pending)
		}
		for _, env := range ck.Pending {
			ts, err := timestamp.Decode(env.Meta)
			if err != nil || !ts.Equal(sent[env.OracleID]) {
				t.Fatalf("%s: checkpointed update %d decodes to %v, %v; sent %v", what, env.OracleID, ts, err, sent[env.OracleID])
			}
		}
		return ck
	}
	for _, proto := range []*Prototype{&p.Prototype, p.Rescan()} {
		orig := proto.NewNode(1, nil).(*replica)
		for _, env := range []Envelope{
			pool[0], // applied
			pool[0], // stale replay: parks dead
			pool[2], // sender 2's next, waiting on pool[1]: the decoded head
			pool[2], // duplicate of the head: parks dead
			pool[4], // out of order: buffered as bytes
			pool[4], // duplicate of an out-of-order update: parks dead
		} {
			orig.HandleMessage(env, DiscardSink{})
		}
		if !orig.naive {
			if u, ok := orig.q.Peek(2, 1); !ok || u.meta != nil || orig.head[2].seq != 1 {
				t.Fatalf("sender 2's update is not held decoded in its head slot: %+v, slot seq %d", u, orig.head[2].seq)
			}
		}
		ck := snapshot(proto.Name(), orig, 5)
		clone := proto.NewNode(1, nil).(*replica)
		if applied, err := clone.Install(ck); err != nil || len(applied) != 0 {
			t.Fatalf("%s: install applied %v, %v", proto.Name(), applied, err)
		}
		if clone.PendingCount() != 5 || clone.LivePending() != orig.LivePending() {
			t.Fatalf("%s: installed pending %d, live %d; want 5 and %d", proto.Name(),
				clone.PendingCount(), clone.LivePending(), orig.LivePending())
		}
		for _, env := range []Envelope{pool[1], pool[3], pool[5]} {
			want, _ := CollectMessage(orig, env)
			got, _ := CollectMessage(clone, env)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: delivering update %d applies %v after restore, %v without", proto.Name(), env.OracleID, got, want)
			}
		}
		if orig.LivePending() != 0 || clone.LivePending() != 0 || !clone.τ.Equal(orig.τ) {
			t.Fatalf("%s: end states differ: live %d vs %d, τ %v vs %v", proto.Name(),
				clone.LivePending(), orig.LivePending(), clone.τ, orig.τ)
		}
		snapshot(proto.Name()+" at the end", orig, 3)
		snapshot(proto.Name()+" restored, at the end", clone, 3)
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
