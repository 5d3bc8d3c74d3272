package ingest

import (
	"sort"
	"testing"
)

func TestOfferGateAndDup(t *testing.T) {
	q := NewSenderQueues[string](3)
	// seq exactly gate+1 reports deliverable.
	if !q.Offer(0, 1, 0, "a1") {
		t.Error("Offer(gate+1) = false")
	}
	// Out of order: filed, not deliverable.
	if q.Offer(0, 3, 0, "a3") {
		t.Error("Offer(gate+3) = true")
	}
	// Stale: parked dead, still counted.
	if q.Offer(0, 0, 0, "stale") {
		t.Error("stale Offer = true")
	}
	// Duplicate key: parked dead.
	if q.Offer(0, 3, 0, "dup") {
		t.Error("dup Offer = true")
	}
	q.Park("untracked")
	if q.Len() != 5 || q.Live() != 2 {
		t.Errorf("Len = %d, Live = %d, want 5 and 2", q.Len(), q.Live())
	}
	if q.QueueLen(0) != 2 || q.QueueLen(1) != 0 {
		t.Errorf("QueueLen = %d/%d", q.QueueLen(0), q.QueueLen(1))
	}

	if u, ok := q.Peek(0, 1); !ok || u != "a1" {
		t.Errorf("Peek(0,1) = %q,%v", u, ok)
	}
	if _, ok := q.Peek(0, 2); ok {
		t.Error("Peek(0,2) found nothing filed")
	}
	if _, ok := q.Peek(1, 1); ok {
		t.Error("Peek on empty sender found something")
	}
	q.Remove(0, 1)
	if q.Len() != 4 || q.Live() != 1 || q.QueueLen(0) != 1 {
		t.Errorf("after Remove: Len=%d Live=%d QueueLen=%d", q.Len(), q.Live(), q.QueueLen(0))
	}

	var all []string
	q.All(func(s string) { all = append(all, s) })
	sort.Strings(all)
	want := []string{"a3", "dup", "stale", "untracked"}
	if len(all) != len(want) {
		t.Fatalf("All visited %v, want %v", all, want)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("All visited %v, want %v", all, want)
		}
	}
}

func TestDrainChain(t *testing.T) {
	q := NewSenderQueues[int](2)
	// File 5..2 out of order from sender 1; nothing deliverable yet.
	for seq := uint64(5); seq >= 2; seq-- {
		if q.Offer(1, seq, 0, int(seq)) {
			t.Fatalf("Offer(%d) deliverable before head", seq)
		}
	}
	// The head arrives: drain the chain in sequence order.
	if !q.Offer(1, 1, 0, 1) {
		t.Fatal("head Offer not deliverable")
	}
	gate := uint64(0)
	var got []int
	for {
		u, ok := q.Peek(1, gate+1)
		if !ok {
			break
		}
		q.Remove(1, gate+1)
		gate++
		got = append(got, u)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("drained %v, want 1..5 in order", got)
		}
	}
	if len(got) != 5 || q.Len() != 0 {
		t.Fatalf("drained %d, Len=%d", len(got), q.Len())
	}
}
