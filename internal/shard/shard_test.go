package shard

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/workload"
)

func newRing(t testing.TB, replicas int, opts Options) *Runtime {
	t.Helper()
	g := sharegraph.Ring(replicas)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouterRoundTrip(t *testing.T) {
	ro := Router{Spaces: 100, Shards: 8}
	for _, s := range []int{0, 7, 8, 99} {
		key := ro.Key(s, "x/with/slashes")
		route, err := ro.Resolve(key)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", key, err)
		}
		if route.Space != s || route.Shard != s%8 || route.Reg != "x/with/slashes" {
			t.Errorf("Resolve(%q) = %+v", key, route)
		}
	}
	for _, bad := range []string{"", "x3", "s5", "s100/x", "s-1/x", "sfoo/x"} {
		if _, err := ro.Resolve(bad); err == nil {
			t.Errorf("Resolve(%q): expected error", bad)
		}
	}
}

// TestShardedBasicConvergence runs an audited multi-tenant workload and
// checks every space's oracle stays clean and every space converged to a
// consistent final state across replicas of shared registers.
func TestShardedBasicConvergence(t *testing.T) {
	const spaces = 12
	r := newRing(t, 5, Options{Spaces: spaces, Audit: true, Seed: 3, FlushSize: 8, FlushInterval: 200 * time.Microsecond})
	defer r.Close()
	ms, err := workload.GenerateMulti(r.Graph(), workload.MultiOptions{Spaces: spaces, Ops: 1500, Zipf: 1.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v := r.RunMulti(ms, 0); len(v) > 0 {
		t.Fatalf("%d oracle violations, first: %v", len(v), v[0])
	}
	for s := 0; s < spaces; s++ {
		snaps := r.StateSnapshot(s)
		for _, x := range r.Graph().Registers() {
			var want core.Value
			seen := false
			for _, rep := range r.Graph().Holders(x) {
				v, ok := snaps[rep][x]
				if !ok {
					continue
				}
				if seen && v != want {
					t.Fatalf("space %d register %s: replicas diverge (%d vs %d)", s, x, v, want)
				}
				want, seen = v, true
			}
		}
	}
	if m := r.Metrics(); m.Batches > 0 && m.Envelopes < m.Batches {
		t.Errorf("metrics inconsistent: %d envelopes in %d batches", m.Envelopes, m.Batches)
	}
}

// TestShardedBackpressureTinyInboxes is the deadlock hunt: one-slot
// shard inboxes, single-envelope batches, many spaces funneled onto few
// shards, and concurrent writers — the Send path must block and recover
// rather than deadlock against delivering workers (run under -race in
// CI).
func TestShardedBackpressureTinyInboxes(t *testing.T) {
	const spaces = 16
	r := newRing(t, 4, Options{
		Spaces: spaces, Shards: 2, Workers: 2,
		InboxCapacity: 1, FlushSize: 1, FlushInterval: 50 * time.Microsecond,
		Seed: 7,
	})
	defer r.Close()
	ms, err := workload.GenerateMulti(r.Graph(), workload.MultiOptions{Spaces: spaces, Ops: 2000, Zipf: 1.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		r.RunMulti(ms, 8)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sharded run deadlocked under tiny inboxes")
	}
}

// TestShardedWriteErrors covers the validation paths.
func TestShardedWriteErrors(t *testing.T) {
	r := newRing(t, 3, Options{Spaces: 2})
	if err := r.Write(5, 0, "x0", 1); err == nil {
		t.Error("out-of-range space accepted")
	}
	if err := r.Write(0, 0, "not-a-register", 1); err == nil {
		t.Error("unknown register accepted")
	}
	if _, ok := r.Read(9, 0, "x0"); ok {
		t.Error("out-of-range space read ok")
	}
	if r.StateSnapshot(-1) != nil || r.StateSnapshot(2) != nil {
		t.Error("out-of-range space snapshot not nil")
	}
	// An out-of-range replica is an error, and it must not leave another
	// space's replica lock held: space 1's replica 0 still writes and
	// drains afterwards.
	x := r.Graph().Stores(0).Sorted()[0]
	for _, rep := range []sharegraph.ReplicaID{-1, 3} {
		if err := r.Write(0, rep, x, 1); err == nil {
			t.Errorf("write at replica %d accepted", rep)
		}
		if _, ok := r.Read(0, rep, x); ok {
			t.Errorf("read at replica %d ok", rep)
		}
	}
	done := make(chan error, 1)
	go func() {
		err := r.Write(1, 0, x, 2)
		r.Quiesce()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write at space 1 replica 0 blocked")
	}
	r.Close()
	if err := r.Write(0, 0, "x0", 1); err == nil {
		t.Error("write after close accepted")
	}
	r.Close() // idempotent
}

// TestShardedQuiesceFlushesStaged pins the fixpoint property batching
// introduces: a write staged below FlushSize is invisible to the engine
// until a flush, and Quiesce must still deliver it before returning.
func TestShardedQuiesceFlushesStaged(t *testing.T) {
	// A flush interval far beyond the test's runtime proves Quiesce did
	// the sweep itself rather than racing the idle flusher.
	r := newRing(t, 4, Options{Spaces: 1, FlushSize: 1 << 20, FlushInterval: time.Hour})
	defer r.Close()
	g := r.Graph()
	var reg sharegraph.Register
	var owner sharegraph.ReplicaID
	for _, x := range g.Registers() {
		if h := g.Holders(x); len(h) >= 2 {
			reg, owner = x, h[0]
			break
		}
	}
	if err := r.Write(0, owner, reg, 42); err != nil {
		t.Fatal(err)
	}
	r.Quiesce()
	for _, rep := range g.Holders(reg) {
		if v, ok := r.Read(0, rep, reg); !ok || v != 42 {
			t.Fatalf("replica %d: %v (ok=%v) after quiesce, want 42", rep, v, ok)
		}
	}
}

// TestShardedConcurrentMixedSpaces hammers many goroutines across many
// spaces at once — the routing layer must keep spaces isolated (values
// written in one space never bleed into another).
func TestShardedConcurrentMixedSpaces(t *testing.T) {
	const spaces = 8
	r := newRing(t, 4, Options{Spaces: spaces, Seed: 5})
	defer r.Close()
	g := r.Graph()
	reg := g.Registers()[0]
	owner := g.Holders(reg)[0]
	var wg sync.WaitGroup
	for s := 0; s < spaces; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := r.Write(s, owner, reg, core.Value(1000*s+i)); err != nil {
					t.Errorf("space %d write %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	r.Quiesce()
	for s := 0; s < spaces; s++ {
		want := core.Value(1000*s + 199)
		for _, rep := range g.Holders(reg) {
			if v, ok := r.Read(s, rep, reg); !ok || v != want {
				t.Fatalf("space %d replica %d: %v (ok=%v), want %v — space isolation broken", s, rep, v, ok, want)
			}
		}
	}
}

// TestShardedQuiesceWaitsForDetachedBatch pins Quiesce against the idle
// flusher's window: a batch it detached from its outbox but has not yet
// pushed is neither staged nor in the engine, and Quiesce must still
// wait for its delivery.
func TestShardedQuiesceWaitsForDetachedBatch(t *testing.T) {
	r := newRing(t, 4, Options{Spaces: 1, FlushSize: 1 << 20, FlushInterval: time.Hour})
	defer r.Close()
	g := r.Graph()
	var reg sharegraph.Register
	for _, x := range g.Registers() {
		if len(g.Holders(x)) >= 2 {
			reg = x
			break
		}
	}
	holders := g.Holders(reg)
	if err := r.Write(0, holders[0], reg, 42); err != nil {
		t.Fatal(err)
	}
	// Detach the staged batch the way flushAll does and push it late.
	ob := &r.out[0]
	ob.mu.Lock()
	b := ob.cur
	ob.cur = nil
	ob.mu.Unlock()
	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		time.Sleep(20 * time.Millisecond)
		s := r.getSink()
		r.push(s, b, false)
		r.putSink(s)
	}()
	r.Quiesce()
	for _, rep := range holders {
		if v, ok := r.Read(0, rep, reg); !ok || v != 42 {
			t.Errorf("replica %d read (%d, %v) after Quiesce, want (42, true)", rep, v, ok)
		}
	}
	<-pushed
}

// TestShardedBatchingSteadyStateZeroAlloc asserts the acceptance
// criterion: once warmed, staging a write, flushing its batch and
// delivering it end to end performs no allocation. Single worker and a
// parked idle flusher keep the measurement stable; the cycle ends with
// Quiesce so every Meta buffer returns to the pool before the next
// cycle draws from it.
func TestShardedBatchingSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool sheds items, so alloc accounting is meaningless")
	}
	r := newRing(t, 4, Options{
		Spaces: 2, Shards: 1, Workers: 1,
		FlushSize: 16, FlushInterval: time.Hour, Seed: 1,
	})
	defer r.Close()
	g := r.Graph()
	reg := g.Registers()[0]
	owner := g.Holders(reg)[0]
	cycle := func() {
		for i := 0; i < 64; i++ {
			if err := r.Write(i%2, owner, reg, core.Value(i)); err != nil {
				t.Fatal(err)
			}
		}
		r.Quiesce()
	}
	for i := 0; i < 16; i++ { // warm pools, slice capacities and inboxes
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("sharded batching hot path allocates: %.2f allocs per 64-write cycle", avg)
	}
}

// TestShardDefaults pins the documented defaulting rules.
func TestShardDefaults(t *testing.T) {
	r := newRing(t, 3, Options{Spaces: 2})
	defer r.Close()
	if r.Shards() != 2 { // clamped to Spaces
		t.Errorf("Shards = %d, want 2 (clamped to Spaces)", r.Shards())
	}
	r2 := newRing(t, 3, Options{Spaces: 1000, Workers: 2})
	defer r2.Close()
	if r2.Shards() != 8 {
		t.Errorf("Shards = %d, want 4×workers = 8", r2.Shards())
	}
	ro := r2.Router()
	if ro.Spaces != 1000 || ro.Shards != 8 {
		t.Errorf("Router = %+v", ro)
	}
	if _, err := New(r.Graph(), nil, Options{Spaces: 0}); err == nil {
		t.Error("zero spaces accepted")
	}
}

func BenchmarkShardWriteStage(b *testing.B) {
	r := newRing(b, 8, Options{Spaces: 64, FlushSize: 32, Seed: 1})
	defer r.Close()
	g := r.Graph()
	reg := g.Registers()[0]
	owner := g.Holders(reg)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Write(i%64, owner, reg, core.Value(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	r.Quiesce()
}
