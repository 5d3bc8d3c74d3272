package clientserver

import (
	"sync"
	"testing"

	"repro/internal/core"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
	"repro/internal/sim"
)

// TestLiveChaoticConvergence runs the concurrent client workload over a
// faulty inter-replica transport: 5% loss and 5% duplication on every
// edge. Drops retransmit and duplicates park dead in the servers' nodes,
// so the oracle's full audit — safety and liveness — must still come back
// clean.
func TestLiveChaoticConvergence(t *testing.T) {
	sys := bridgeSystem(t, true)
	ls, err := NewLive(sys, sim.WithChaos(rt.FaultPlan{
		Seed:    9,
		Default: rt.EdgeFault{Drop: 0.05, Dup: 0.05},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if ls.Faults() == nil {
		t.Fatal("chaotic system has no fault injector")
	}

	var wg sync.WaitGroup
	progs := []struct {
		client sharegraph.ClientID
		regs   []sharegraph.Register
	}{
		{0, []sharegraph.Register{"a", "b", "p1", "a", "b", "a", "p1", "b"}},
		{1, []sharegraph.Register{"c", "a", "c", "b", "c", "a", "b", "c"}},
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
				if err := lc.Write(x, core.Value(200+k)); err != nil {
					t.Errorf("client %d write %q: %v", c, x, err)
					return
				}
			}
		}(prog.client, prog.regs)
	}
	wg.Wait()
	ls.Quiesce()
	if vs := ls.Tracker().CheckLiveness(); len(vs) != 0 {
		t.Errorf("liveness under chaos: %v", vs)
	}
	if vs := ls.Tracker().Violations(); len(vs) != 0 {
		t.Errorf("violations under chaos: %v", vs)
	}
	if f := ls.Faults(); f.Duped() > 0 && staleDrops(ls) == 0 {
		t.Errorf("%d duplicates injected but no server parked any", f.Duped())
	}
}

// staleDrops sums the undeliverable updates every server received (see
// Server.StaleDrops).
func staleDrops(ls *LiveSystem) int {
	total := 0
	for r := range ls.sys.ReplicaGraphs {
		_ = ls.Do(sharegraph.ReplicaID(r), func(n core.Node, _ core.Sink) error {
			total += n.(*Server).StaleDrops()
			return nil
		})
	}
	return total
}

// TestServerDropsDuplicateUpdates pins the prototype's staleness rule at
// the server: the same update delivered twice is applied once and parked
// dead once, a replayed older update parks dead too, and neither counts as
// pending; a corrupt envelope is dropped outright. StaleDrops counts all
// of them.
func TestServerDropsDuplicateUpdates(t *testing.T) {
	sys := bridgeSystem(t, true)
	h := newHost(t, sys)
	client := NewClient(sys, 1)

	mkUpdate := func(v core.Value) core.Envelope {
		t.Helper()
		req, err := client.NewRequest("c", v, false)
		if err != nil {
			t.Fatal(err)
		}
		req.Replica = 3
		h.request(req)
		if len(h.out.Envs) != 1 {
			t.Fatalf("want 1 update, got %+v", h.out.Envs)
		}
		client.AbsorbResponse(h.responses[0])
		return h.out.Envs[0]
	}
	// Delivery recycles the Meta it is handed, so every delivery gets its
	// own copy.
	deliver := func(env core.Envelope) int {
		env.Meta = append([]byte(nil), env.Meta...)
		return len(h.update(env))
	}

	u1, u2 := mkUpdate(7), mkUpdate(8)
	if got := deliver(u1); got != 1 {
		t.Fatalf("first delivery applied %d updates, want 1", got)
	}
	if got := deliver(u1); got != 0 {
		t.Fatalf("duplicate delivery applied %d updates, want 0", got)
	}
	if got := deliver(u2); got != 1 {
		t.Fatalf("second update applied %d, want 1", got)
	}
	if got := deliver(u2); got != 0 {
		t.Fatalf("stale replay applied %d updates, want 0", got)
	}
	srv := h.servers[0]
	if srv.PendingUpdates() != 0 {
		t.Errorf("%d updates live in pending after replays", srv.PendingUpdates())
	}
	if srv.StaleDrops() != 2 {
		t.Errorf("StaleDrops = %d, want 2 (both replays parked dead)", srv.StaleDrops())
	}
	corrupt := u2
	corrupt.Meta = u2.Meta[:len(u2.Meta)-1]
	if deliver(corrupt) != 0 {
		t.Fatal("malformed envelope applied")
	}
	if srv.StaleDrops() != 3 || srv.PendingUpdates() != 0 {
		t.Errorf("after a malformed envelope: StaleDrops = %d, pending = %d; want 3, 0",
			srv.StaleDrops(), srv.PendingUpdates())
	}
}

// TestServeSteadyStateAllocs pins the emit-contract payoff: once the
// vector freelist, the space's Meta pool and the host's scratch are
// warm, serving a client write — request build, predicate check, τ
// advance, one update per recipient, response — allocates nothing.
func TestServeSteadyStateAllocs(t *testing.T) {
	sys := bridgeSystem(t, true)
	h := newHost(t, sys)
	client := NewClient(sys, 1)

	cycle := func() {
		req, err := client.NewRequest("c", 5, false)
		if err != nil {
			t.Fatal(err)
		}
		req.Replica = 3
		h.request(req)
		// Stand in for the consumers: recycle the buffers the update
		// receivers and the client would.
		for i := range h.out.Envs {
			h.sp.Recycle(h.out.Envs[i].Meta)
		}
		for i := range h.responses {
			sys.putVec(h.responses[i].Tau)
		}
	}
	for i := 0; i < 32; i++ {
		cycle() // warm the freelist and the host's capacity
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 0.5 {
		t.Errorf("serve path allocates %.1f objects/op in steady state, want 0", avg)
	}
}
