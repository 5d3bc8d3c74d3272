package clientserver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sharegraph"
)

// FuzzServerUpdateIngest hammers a server's update delivery (through
// its sim.Space) with mutated inter-replica updates: exact duplicates,
// stale replays, unknown and negative senders, and truncated, padded or
// missing timestamps. The server must never panic, never apply one
// sender's updates out of send order (predicate J3), count as pending
// exactly the updates that can still apply, and account for every other
// envelope in StaleDrops.
func FuzzServerUpdateIngest(f *testing.F) {
	// In-order, duplicated back to back.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 2, 0})
	// In-order then stale replays.
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 0, 0, 1, 0})
	// Malformed storm.
	f.Add([]byte{0, 1, 0, 2, 1, 3, 1, 4, 2, 5, 3, 6, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := sharegraph.New([][]sharegraph.Register{{"x"}, {"x"}})
		if err != nil {
			t.Fatal(err)
		}
		aug, err := sharegraph.NewAugmented(g, sharegraph.ClientAssignment{{0}})
		if err != nil {
			t.Fatal(err)
		}
		sys := NewSystem(aug)
		h := newHost(t, sys)
		recv := h.servers[1]
		client := NewClient(sys, 0)

		// A pool of genuine in-order updates 0→1 with increasing values.
		const writes = 16
		updates := make([]core.Envelope, writes)
		for i := 0; i < writes; i++ {
			req, err := client.NewRequest("x", core.Value(i+1), false)
			if err != nil {
				t.Fatal(err)
			}
			if !h.request(req) {
				t.Fatalf("write %d rejected", i)
			}
			if len(h.out.Envs) != 1 || len(h.responses) != 1 {
				t.Fatalf("write %d outcome: %+v, %+v", i, h.out.Envs, h.responses)
			}
			updates[i] = h.out.Envs[0]
			client.AbsorbResponse(h.responses[0])
		}

		lastVal := core.Value(0)
		seen := make(map[int]bool) // genuine updates delivered intact at least once
		delivered := 0
		for i := 0; i+1 < len(data); i += 2 {
			idx := int(data[i]) % writes
			u := updates[idx]
			// The receiver recycles Meta; keep the pool of updates intact.
			u.Meta = append([]byte(nil), u.Meta...)
			switch data[i+1] % 8 {
			case 1: // truncated timestamp
				u.Meta = u.Meta[:len(u.Meta)/2]
			case 2: // padded timestamp
				u.Meta = append(u.Meta, 0, 0)
			case 3: // sender beyond the replica set
				u.From = 9
			case 4: // negative sender
				u.From = -1
			case 6: // nil timestamp
				u.Meta = nil
			default: // deliver intact (dups and stale replays arise from repeats)
				seen[idx] = true
			}
			delivered++
			for _, a := range h.update(u) {
				if a.Val <= lastVal {
					t.Fatalf("applied value %d after %d: out of send order", a.Val, lastVal)
				}
				lastVal = a.Val
			}
			// Exact pending model: an intact update is live iff its
			// predecessors have not all arrived, and live ONCE — a duplicate
			// of a buffered or an applied update parks dead — so pending is
			// exactly the distinct not-yet-applied updates ever seen, and
			// every envelope that neither applied nor is live is a stale drop.
			wantPending := 0
			for j := range seen {
				if core.Value(j+1) > lastVal {
					wantPending++
				}
			}
			if got := recv.PendingUpdates(); got != wantPending {
				t.Fatalf("pending = %d, model %d (applied through %d, seen %d)",
					got, wantPending, lastVal, len(seen))
			}
			if got, want := recv.StaleDrops(), delivered-int(lastVal)-wantPending; got != want {
				t.Fatalf("StaleDrops = %d, want %d (%d delivered, applied through %d, %d live)",
					got, want, delivered, lastVal, wantPending)
			}
		}
	})
}
