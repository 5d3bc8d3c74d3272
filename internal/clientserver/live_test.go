package clientserver

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
	"repro/internal/sim"
)

// newLive starts a live system built with opts.
func newLive(t testing.TB, sys *System, opts ...sim.ClusterOption) *LiveSystem {
	t.Helper()
	ls, err := NewLive(sys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func TestLiveClientServerConcurrent(t *testing.T) {
	sys := bridgeSystem(t, true)
	ls := newLive(t, sys)
	defer ls.Close()

	var wg sync.WaitGroup
	progs := []struct {
		client sharegraph.ClientID
		regs   []sharegraph.Register
	}{
		{0, []sharegraph.Register{"a", "b", "p1", "a", "b"}},
		{1, []sharegraph.Register{"c", "a", "c", "b"}},
	}
	for _, prog := range progs {
		wg.Add(1)
		go func(c sharegraph.ClientID, regs []sharegraph.Register) {
			defer wg.Done()
			lc := ls.Client(c)
			for k, x := range regs {
				if k%3 == 2 {
					if _, err := lc.Read(x); err != nil {
						t.Errorf("client %d read %q: %v", c, x, err)
						return
					}
					continue
				}
				if err := lc.Write(x, core.Value(100+k)); err != nil {
					t.Errorf("client %d write %q: %v", c, x, err)
					return
				}
			}
		}(prog.client, prog.regs)
	}
	wg.Wait()
	ls.Quiesce()
	if vs := ls.Tracker().CheckLiveness(); len(vs) != 0 {
		t.Errorf("liveness: %v", vs)
	}
	if vs := ls.Tracker().Violations(); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
}

func TestLiveReadYourWriteAcrossReplicas(t *testing.T) {
	// Client 1 can access replicas 3 and 0, both storing register c. A
	// write routed to replica 3 must be visible to the same client's read
	// even when the read lands on replica 0 — J1 blocks the read until
	// the update propagates.
	sys := bridgeSystem(t, true)
	ls := newLive(t, sys)
	defer ls.Close()
	lc := ls.Client(1)
	if err := lc.Write("c", 55); err != nil {
		t.Fatal(err)
	}
	// PickReplica prefers replica 3 (listed first) for writes AND reads,
	// so force variety: issue several write/read rounds; the oracle and
	// blocking J1 guarantee the read is never stale regardless of routing.
	for k := 0; k < 5; k++ {
		if err := lc.Write("c", core.Value(56+k)); err != nil {
			t.Fatal(err)
		}
		v, err := lc.Read("c")
		if err != nil {
			t.Fatal(err)
		}
		if v != core.Value(56+k) {
			t.Fatalf("round %d: read %d, want %d", k, v, 56+k)
		}
	}
	ls.Quiesce()
	if vs := ls.Tracker().Violations(); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
}

func TestLiveClosedRejectsOps(t *testing.T) {
	sys := bridgeSystem(t, true)
	ls := newLive(t, sys)
	lc := ls.Client(0)
	ls.Close()
	if err := lc.Write("a", 1); err == nil {
		t.Error("write after Close accepted")
	}
	if _, err := lc.Read("a"); err == nil {
		t.Error("read after Close accepted")
	}
	// Unreachable register surfaces the routing error.
	if err := lc.Write("nonexistent", 1); err == nil {
		t.Error("unreachable register accepted")
	}
}

// TestLiveReadBufferedBehindCut drives a read that J1 must block on the
// live system: the update it waits for is held behind a cut edge, so the
// read waits at the server, and the parked count covers both the cut
// update and the buffered request until the edge heals.
func TestLiveReadBufferedBehindCut(t *testing.T) {
	g, err := sharegraph.New([][]sharegraph.Register{{"x", "z"}, {"x"}})
	if err != nil {
		t.Fatal(err)
	}
	// Client 0 writes x at replica 0; client 1 reads z at replica 0 and
	// then x at replica 1, its first choice for x.
	aug, err := sharegraph.NewAugmented(g, sharegraph.ClientAssignment{{0}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	ls := newLive(t, NewSystem(aug), sim.WithChaos(rt.FaultPlan{}))
	defer ls.Close()
	ls.Faults().Cut(0, 1, 0) // the edge the write's update travels

	writer, reader := ls.Client(0), ls.Client(1)
	if err := writer.Write("x", 7); err != nil {
		t.Fatal(err)
	}
	// Reading z at replica 0 takes the write into the reader's past.
	if _, err := reader.Read("z"); err != nil {
		t.Fatal(err)
	}
	got := make(chan core.Value, 1)
	go func() {
		v, err := reader.Read("x")
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	for deadline := time.Now().Add(5 * time.Second); ls.Metrics().Parked != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("parked = %d, want 2: the cut update and the buffered read", ls.Metrics().Parked)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case v := <-got:
		t.Fatalf("read returned %d while its update was cut off", v)
	default:
	}

	ls.Faults().Heal(0, 1)
	select {
	case v := <-got:
		if v != 7 {
			t.Errorf("read after heal = %d, want 7", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read still blocked after heal")
	}
	ls.Quiesce()
	if p := ls.Metrics().Parked; p != 0 {
		t.Errorf("parked after quiesce = %d, want 0", p)
	}
	if vs := ls.Tracker().CheckLiveness(); len(vs) != 0 {
		t.Errorf("liveness: %v", vs)
	}
	if vs := ls.Tracker().Violations(); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
}
