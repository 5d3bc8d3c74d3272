package core

import (
	"io"
	"log"
	"runtime"
	"testing"

	"repro/internal/causality"
	"repro/internal/sharegraph"
)

// FuzzEdgeNodeIngest hammers the indexed engine's envelope guards through
// the real node: random interleavings of valid, replayed, truncated,
// padded (wrong vector length) and invalid-sender envelopes must never
// panic and never apply a sender's updates out of send order — the
// predicate-J guarantee the ingest queues encode.
func FuzzEdgeNodeIngest(f *testing.F) {
	f.Add([]byte{0, 0, 5, 1, 9, 2, 3, 0, 7, 5})
	f.Add([]byte{23, 0, 22, 0, 21, 0, 1, 3, 2, 4, 0, 5})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 0})
	// Exact duplicates: every envelope delivered twice back to back, the
	// dup-lottery shape the chaotic transport produces.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 3, 0})
	// Stale replays: deliver 0..5 in order, then re-deliver 0, 1, 2 —
	// the retransmit-after-apply shape; all three must park dead.
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 0, 0, 1, 0, 2, 0})
	// Duplicates of a parked (ahead-of-gate) envelope, then the gap fills.
	f.Add([]byte{2, 0, 2, 0, 3, 0, 3, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The guards log dropped envelopes; silence the noise for fuzzing.
		old := log.Writer()
		log.SetOutput(io.Discard)
		defer log.SetOutput(old)

		g := sharegraph.Line(2)
		p, err := NewEdgeIndexed(g)
		if err != nil {
			t.Fatal(err)
		}
		nodes, err := p.NewNodes()
		if err != nil {
			t.Fatal(err)
		}
		// A pool of genuine in-order envelopes from replica 0 to replica 1.
		const writes = 24
		envs := make([]Envelope, writes)
		for i := 0; i < writes; i++ {
			out, err := CollectWrite(nodes[0], "seg0", Value(i+1), causality.UpdateID(i))
			if err != nil || len(out) != 1 {
				t.Fatalf("write %d: %v %v", i, err, out)
			}
			envs[i] = out[0]
		}
		recv := nodes[1]
		lastVal := Value(0)
		for i := 0; i+1 < len(data); i += 2 {
			env := envs[int(data[i])%writes]
			switch data[i+1] % 8 {
			case 1: // truncated metadata: decode error, dropped
				env.Meta = env.Meta[:len(env.Meta)/2]
			case 2: // padded metadata: wrong-length vector, dropped
				padded := append([]byte(nil), env.Meta...)
				env.Meta = append(padded, 0, 0)
			case 3: // sender beyond the replica set
				env.From = 7
			case 4: // negative sender
				env.From = -1
			case 5: // empty metadata
				env.Meta = nil
			default: // deliver intact (dups arise from repeated picks)
			}
			applied, fwd := CollectMessage(recv, env)
			if len(fwd) != 0 {
				t.Fatalf("edge-indexed forwarded %d messages", len(fwd))
			}
			for _, a := range applied {
				// Values were written 1..writes in send order; per-sender
				// delivery must preserve it.
				if a.Val <= lastVal {
					t.Fatalf("applied value %d after %d: out of send order", a.Val, lastVal)
				}
				lastVal = a.Val
			}
			if recv.PendingCount() < 0 {
				t.Fatalf("negative pending count")
			}
		}
	})
}

// TestRejectedFramesReuseVector: a frame dropped for its sender or its
// vector length after the metadata decoded must hand the decoded vector
// back to the freelist, so a warmed node pays no timestamp storage per
// hostile frame. The drop diagnostic still boxes its arguments, so the
// bound is in bytes: well under one vector per frame.
func TestRejectedFramesReuseVector(t *testing.T) {
	old := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(old)

	p, err := NewEdgeIndexed(sharegraph.Ring(32))
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := p.NewNodes()
	if err != nil {
		t.Fatal(err)
	}
	out, err := CollectWrite(nodes[0], "ring0", 1, 0)
	if err != nil || len(out) != 1 {
		t.Fatalf("write: %v %v", err, out)
	}
	invalid, padded := out[0], out[0]
	invalid.From = 99
	padded.Meta = append(append([]byte(nil), out[0].Meta...), 0)
	padded.Meta[0]++ // one more entry than replica 0's timestamp has
	recv := nodes[out[0].To]
	recv.HandleMessage(out[0], DiscardSink{}) // warm: the applied vector fills the freelist
	vecBytes := 8 * uint64(p.Space().Len(0))
	for _, env := range []Envelope{invalid, padded} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			recv.HandleMessage(env, DiscardSink{})
		}
		runtime.ReadMemStats(&after)
		if perFrame := (after.TotalAlloc - before.TotalAlloc) / 100; perFrame >= vecBytes/2 {
			t.Errorf("frames from %d with %d meta bytes allocate %d B each; a vector is %d B",
				env.From, len(env.Meta), perFrame, vecBytes)
		}
	}
}
