package core

import (
	"io"
	"log"
	"runtime"
	"slices"
	"testing"

	"repro/internal/causality"
	"repro/internal/sharegraph"
	"repro/internal/timestamp"
)

// chainPool returns writes envelopes to replica 1 of FullReplication(3, 1),
// written by replicas 0 and 2 (two writes by 0, then one by 2, repeated)
// with values 1, 2, …. Each write is delivered to the other writer before
// the next one is issued, so the pool is one causal chain: value order is
// causal order, and the two senders' updates gate each other at 1.
func chainPool(tb testing.TB, p Protocol, writes int) []Envelope {
	tb.Helper()
	nodes := newNodes(tb, p)
	pool := make([]Envelope, 0, writes)
	for i := 0; i < writes; i++ {
		w, other := sharegraph.ReplicaID(0), sharegraph.ReplicaID(2)
		if i%3 == 2 {
			w, other = other, w
		}
		out, err := CollectWrite(nodes[w], "r0", Value(i+1), causality.UpdateID(i))
		if err != nil || len(out) != 2 {
			tb.Fatalf("write %d: %v %v", i, err, out)
		}
		for _, env := range out {
			switch env.To {
			case 1:
				pool = append(pool, env)
			case other:
				if applied, _ := CollectMessage(nodes[other], env); len(applied) != 1 {
					tb.Fatalf("write %d: replica %d applied %v", i, other, applied)
				}
			}
		}
	}
	return pool
}

// FuzzEdgeNodeIngest hammers the indexed engine's envelope guards through
// the real node: random interleavings of valid, replayed, truncated,
// padded (wrong vector length) and invalid-sender envelopes from two
// senders whose updates depend on each other must never panic, never
// apply an update before its causal predecessors, never read metadata
// after the call that received it, and match the Rescan() twin, which
// keeps no head slots, on every applied sequence and pending count.
// Delivering the whole pool in order afterwards must leave nothing live
// buffered on either.
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
	// Sender 2's next update arrives before its dependency from 0, is
	// duplicated while it waits in its head slot, then unblocks.
	f.Add([]byte{2, 0, 0, 0, 2, 0, 1, 0, 3, 0})
	p := newProto(f, sharegraph.FullReplication(3, 1))
	const writes = 24
	envs := chainPool(f, p, writes)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The guards log dropped envelopes; silence the noise for fuzzing.
		old := log.Writer()
		log.SetOutput(io.Discard)
		defer log.SetOutput(old)

		recv, twin := p.NewNode(1, nil), p.Rescan().NewNode(1, nil)
		// ingest hands n a copy of env's metadata and scribbles over it
		// afterwards, as a host recycling it would: a node must keep its
		// own copy of whatever it buffers.
		ingest := func(n Node, env Envelope) ([]Applied, []Envelope) {
			env.Meta = slices.Clone(env.Meta)
			applied, fwd := CollectMessage(n, env)
			for i := range env.Meta {
				env.Meta[i] = 0xff
			}
			return slices.Clone(applied), fwd
		}
		lastVal := Value(0)
		deliver := func(env Envelope) {
			t.Helper()
			applied, fwd := ingest(recv, env)
			twinApplied, twinFwd := ingest(twin, env)
			if len(fwd) != 0 || len(twinFwd) != 0 {
				t.Fatalf("edge-indexed forwarded %d / %d messages", len(fwd), len(twinFwd))
			}
			if !slices.Equal(applied, twinApplied) {
				t.Fatalf("indexed drain applied %v, reference %v", applied, twinApplied)
			}
			for _, a := range applied {
				// The pool is one causal chain written as values 1..writes.
				if a.Val <= lastVal {
					t.Fatalf("applied value %d after %d: out of causal order", a.Val, lastVal)
				}
				lastVal = a.Val
			}
			if a, b := recv.PendingCount(), twin.PendingCount(); a != b {
				t.Fatalf("PendingCount %d, reference %d", a, b)
			}
		}
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
			deliver(env)
		}
		for _, env := range envs {
			deliver(env)
		}
		for _, n := range []Layered{recv, twin} {
			if live := n.LivePending(); live != 0 || lastVal != writes {
				t.Fatalf("after the whole pool: %d live buffered, last applied value %d of %d", live, lastVal, writes)
			}
		}
	})
}

// TestRejectedFramesReuseVector: a frame dropped for its sender or its
// vector length is decoded into node scratch, so it allocates no vector
// at all, however many arrive. The drop diagnostic still boxes its
// arguments, so the bound is in bytes: a small fraction of one vector.
func TestRejectedFramesReuseVector(t *testing.T) {
	old := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(old)

	p := newProto(t, sharegraph.Ring(32))
	nodes := newNodes(t, p)
	out, err := CollectWrite(nodes[0], "ring0", 1, 0)
	if err != nil || len(out) != 1 {
		t.Fatalf("write: %v %v", err, out)
	}
	ts, err := timestamp.Decode(out[0].Meta)
	if err != nil {
		t.Fatal(err)
	}
	invalid, padded := out[0], out[0]
	invalid.From = 99
	padded.Meta = timestamp.Encode(append(ts, 0)) // one more entry than replica 0's timestamp has
	recv := nodes[out[0].To]
	vecBytes := 8 * uint64(len(ts))
	for _, env := range []Envelope{invalid, padded} {
		recv.HandleMessage(env, DiscardSink{}) // the first frame sizes the scratch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			recv.HandleMessage(env, DiscardSink{})
		}
		runtime.ReadMemStats(&after)
		if perFrame := (after.TotalAlloc - before.TotalAlloc) / 100; perFrame >= vecBytes/4 {
			t.Errorf("frames from %d with %d meta bytes allocate %d B each; a vector is %d B",
				env.From, len(env.Meta), perFrame, vecBytes)
		}
	}
	if recv.PendingCount() != 0 {
		t.Fatalf("rejected frames were buffered: PendingCount = %d", recv.PendingCount())
	}
}

// TestBufferedUpdateMemory pins what an update costs while it waits: its
// wire bytes, not a decoded vector. A node warmed by one reversed window
// (queues, scratch and head slot sized) is sent a second window from the
// same sender in reverse order, with its metadata freelist emptied so
// every buffered update pays for its own storage.
func TestBufferedUpdateMemory(t *testing.T) {
	g := sharegraph.RandomK(32, 96, 3, 7)
	p := newProto(t, g)
	nodes := newNodes(t, p)
	x := g.Stores(0).Sorted()[0]
	// window returns the next n updates from replica 0 to one recipient,
	// in send order.
	window := func(n int) []Envelope {
		var envs []Envelope
		for i := 0; i < n; i++ {
			out, err := CollectWrite(nodes[0], x, Value(i), causality.UpdateID(i))
			if err != nil || len(out) == 0 {
				t.Fatalf("write to %s: %v %v", x, err, out)
			}
			envs = append(envs, out[0])
		}
		return envs
	}
	const n = 32
	warm := window(n)
	recv := nodes[warm[0].To].(*replica)
	for i := n - 1; i >= 0; i-- {
		recv.HandleMessage(warm[i], DiscardSink{})
	}
	if recv.PendingCount() != 0 {
		t.Fatalf("warm-up window left %d buffered", recv.PendingCount())
	}
	recv.metaFree = nil

	envs := window(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := n - 1; i >= 1; i-- {
		recv.HandleMessage(envs[i], DiscardSink{})
	}
	runtime.ReadMemStats(&after)
	if recv.PendingCount() != n-1 {
		t.Fatalf("PendingCount = %d, want %d", recv.PendingCount(), n-1)
	}
	metaLen, vecBytes := len(envs[n-1].Meta), 8*p.Space().Len(0)
	perUpdate := int(after.TotalAlloc-before.TotalAlloc) / (n - 1)
	if perUpdate > 2*metaLen+64 || perUpdate > vecBytes/2 {
		t.Errorf("a buffered update allocates %d B; its metadata is %d B, a vector %d B", perUpdate, metaLen, vecBytes)
	}
	if applied := recv.HandleMessage(envs[0], DiscardSink{}); len(applied) != n {
		t.Fatalf("the window's first update applied %d, want %d", len(applied), n)
	}
	t.Logf("per buffered update: %d B allocated, %d B metadata, %d B vector", perUpdate, metaLen, vecBytes)
}
