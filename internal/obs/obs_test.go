package obs

import "testing"

// TestNilRegistryNoOps pins the disarmed contract: every recording and
// reading method is safe on a nil *Registry and the whole disarmed call
// surface allocates nothing — the same zero-cost discipline the chaos
// hooks established.
func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	disarmed := func() {
		r.QueueDepth(0, 5)
		_ = r.Snapshot()
		r.Deliver(0, 1, 2)
		r.Sent(0, 1, 64)
		r.Dropped(0, 1)
		r.Duped(0, 1)
		r.Retransmitted(0, 1)
		r.Batch(3)
		_ = r.Replicas()
	}
	disarmed() // must not panic
	if allocs := testing.AllocsPerRun(100, disarmed); allocs != 0 {
		t.Errorf("disarmed registry call surface allocates %.1f/op, want 0", allocs)
	}
	s := r.Snapshot()
	if s.Messages != 0 || s.Replicas != nil || s.Edges != nil || s.Queues != nil {
		t.Errorf("nil registry Snapshot not zero: %+v", s)
	}
}

// TestDeliverSemantics pins the applied-count interpretation: 0 is a
// dependency stall, >1 releases applied-1 parked updates on recheck, and
// MetaOnly counts as delivered but neither stall nor apply.
func TestDeliverSemantics(t *testing.T) {
	r := New(3, 3)
	r.Deliver(0, 1, 0)        // stall
	r.Deliver(0, 1, 1)        // plain apply
	r.Deliver(2, 1, 3)        // apply releasing two parked updates
	r.Deliver(0, 1, MetaOnly) // meta-only: neither stall nor apply
	r.Deliver(-1, 1, 1)       // unknown origin: replica counters only
	r.Deliver(0, 99, 1)       // out-of-range target: ignored entirely

	s := r.Snapshot()
	rm := s.Replicas[1]
	if rm.Delivered != 5 {
		t.Errorf("delivered = %d, want 5", rm.Delivered)
	}
	if rm.Applied != 5 {
		t.Errorf("applied = %d, want 5", rm.Applied)
	}
	if rm.Stalls != 1 {
		t.Errorf("stalls = %d, want 1", rm.Stalls)
	}
	if rm.Rechecks != 2 {
		t.Errorf("rechecks = %d, want 2", rm.Rechecks)
	}
	if got := s.Edges[EdgeKey(0, 1)].Delivered; got != 3 {
		t.Errorf("edge 0->1 delivered = %d, want 3", got)
	}
	if got := s.Edges[EdgeKey(2, 1)].Delivered; got != 1 {
		t.Errorf("edge 2->1 delivered = %d, want 1", got)
	}
	if len(s.Replicas) != 3 || s.Replicas[0].Delivered != 0 {
		t.Errorf("unexpected replica breakdown: %+v", s.Replicas)
	}
}

// TestEdgeCounters covers the traffic counters and the fault-injection
// attribution set.
func TestEdgeCounters(t *testing.T) {
	r := New(2, 0)
	r.Sent(0, 1, 40)
	r.Sent(0, 1, 24)
	r.Dropped(0, 1)
	r.Duped(0, 1)
	r.Duped(0, 1)
	r.Retransmitted(0, 1)
	r.Sent(5, 1, 8) // out of range: ignored

	e := r.Snapshot().Edges[EdgeKey(0, 1)]
	if e.Sent != 2 || e.Bytes != 64 {
		t.Errorf("sent/bytes = %d/%d, want 2/64", e.Sent, e.Bytes)
	}
	if e.Dropped != 1 || e.Duped != 2 || e.Retransmitted != 1 {
		t.Errorf("fault counters = %d/%d/%d, want 1/2/1", e.Dropped, e.Duped, e.Retransmitted)
	}
	// The reverse edge never saw traffic and must be absent, not zero.
	if _, ok := r.Snapshot().Edges[EdgeKey(1, 0)]; ok {
		t.Error("zero-valued edge 1->0 present in snapshot")
	}
}

// TestQueueGaugesAndBatch pins the gauge high-water marks and the batch
// counters.
func TestQueueGaugesAndBatch(t *testing.T) {
	r := New(2, 2)
	r.QueueDepth(0, 4)
	r.QueueDepth(0, 9)
	r.QueueDepth(0, 2) // depth drops, peak must not
	r.Batch(3)
	r.Batch(7)
	r.Batch(5)

	s := r.Snapshot()
	// queues == replicas: gauges fold into the replica rows.
	if s.Queues != nil {
		t.Errorf("Queues slice present despite queues==replicas: %+v", s.Queues)
	}
	if s.Replicas[0].InboxDepth != 2 || s.Replicas[0].InboxPeak != 9 {
		t.Errorf("folded gauges = %d/%d, want 2/9", s.Replicas[0].InboxDepth, s.Replicas[0].InboxPeak)
	}
	if s.Batches != 3 || s.Envelopes != 15 || s.MaxBatch != 7 {
		t.Errorf("batch counters = %d/%d/%d, want 3/15/7", s.Batches, s.Envelopes, s.MaxBatch)
	}
}

// TestQueueSpaceSeparate pins the sharded-runtime shape: when the queue
// index space differs from the replica space the snapshot reports a
// separate Queues slice instead of guessing a fold.
func TestQueueSpaceSeparate(t *testing.T) {
	r := New(2, 4)
	r.QueueDepth(3, 6)
	s := r.Snapshot()
	if len(s.Queues) != 4 {
		t.Fatalf("len(Queues) = %d, want 4", len(s.Queues))
	}
	if s.Queues[3].Depth != 6 || s.Queues[3].Peak != 6 {
		t.Errorf("queue 3 = %+v, want depth/peak 6/6", s.Queues[3])
	}
	if s.Replicas[0].InboxDepth != 0 || s.Replicas[1].InboxPeak != 0 {
		t.Errorf("replica rows absorbed queue gauges despite differing index spaces: %+v", s.Replicas)
	}
}

// TestIngestDrops: drop counting is nil-safe, bounds-checked, and
// surfaces in the per-replica snapshot.
func TestIngestDrops(t *testing.T) {
	var nilReg *Registry
	nilReg.IngestDrop(0) // must not panic

	r := New(3, 0)
	r.IngestDrop(-1)
	r.IngestDrop(3) // out of range: ignored
	r.IngestDrop(1)
	r.IngestDrop(1)
	s := r.Snapshot()
	if got := s.Replicas[1].IngestDrops; got != 2 {
		t.Errorf("replica 1 ingest drops = %d, want 2", got)
	}
	if got := s.Replicas[0].IngestDrops; got != 0 {
		t.Errorf("replica 0 ingest drops = %d, want 0", got)
	}
}

func TestEdgeKey(t *testing.T) {
	if got := EdgeKey(3, 11); got != "3->11" {
		t.Errorf("EdgeKey(3,11) = %q", got)
	}
}
