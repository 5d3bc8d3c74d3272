package ingest

import (
	"testing"
)

// FuzzSenderQueues drives random interleavings of offers (including
// out-of-range senders, stale and duplicate sequence numbers) and
// park/drain cycles against a reference model, asserting the queues never
// panic, never mis-count, and never surface an update out of
// sequence-number order — the skeleton of predicate J.
func FuzzSenderQueues(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 0, 0, 3, 0, 250, 9, 0})
	f.Add([]byte{3, 1, 1, 2, 2, 2, 1, 1, 1, 0, 0, 0, 0, 1, 4})
	f.Add([]byte{})
	// Exact duplicates: every sequence number offered twice back to back —
	// once ahead of the gate (duplicate key parks dead) and once at it.
	f.Add([]byte{0, 1, 1, 0, 1, 1, 0, 2, 1, 0, 2, 1, 0, 3, 1, 0, 3, 1})
	// Stale replays: drain 1..3, then replay 1, 2 and the never-valid 0 —
	// all must park dead below the gate, never re-deliver.
	f.Add([]byte{0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 1, 1, 0, 2, 1, 0, 0, 1})
	// Duplicate storm across two senders with interleaved parks.
	f.Add([]byte{1, 4, 1, 1, 4, 1, 2, 4, 1, 2, 4, 1, 1, 1, 1, 1, 1, 1, 2, 1, 0, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const senders = 4
		q := NewSenderQueues[uint64](senders)
		gates := make([]uint64, senders)
		model := 0 // every accepted update, live or dead
		for i := 0; i+2 < len(data); i += 3 {
			from := int(int8(data[i])) // frequently out of range, incl. negative
			seq := uint64(data[i+1] % 16)
			if from < 0 || from >= senders {
				// Caller contract: out-of-range senders are dropped before
				// filing (the protocols guard and log them).
				continue
			}
			if data[i+2]%7 == 0 {
				q.Park(seq)
				model++
				continue
			}
			atGate := q.Offer(from, seq, gates[from], seq)
			model++
			if atGate != (seq == gates[from]+1) {
				t.Fatalf("Offer(from=%d seq=%d gate=%d) = %v", from, seq, gates[from], atGate)
			}
			if atGate {
				// Drain like the FIFO protocol: heads are unconditionally
				// deliverable. Every surfaced update must carry exactly the
				// next sequence number — predicate-J order.
				for {
					u, ok := q.Peek(from, gates[from]+1)
					if !ok {
						break
					}
					if u != gates[from]+1 {
						t.Fatalf("delivered seq %d at gate %d: out of order", u, gates[from])
					}
					q.Remove(from, gates[from]+1)
					gates[from]++
					model--
				}
			}
			if q.Len() != model {
				t.Fatalf("Len = %d, model %d", q.Len(), model)
			}
		}
		visited := 0
		q.All(func(uint64) { visited++ })
		if visited != q.Len() {
			t.Fatalf("All visited %d of Len %d", visited, q.Len())
		}
	})
}
