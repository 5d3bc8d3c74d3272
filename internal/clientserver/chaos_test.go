package clientserver

import (
	"sync"
	"testing"

	"repro/internal/core"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
)

// TestLiveChaoticConvergence runs the concurrent client workload over a
// faulty inter-replica transport: 5% loss and 5% duplication on every
// edge. Drops retransmit and duplicates park dead in the servers' nodes,
// so the oracle's full audit — safety and liveness — must still come back
// clean.
func TestLiveChaoticConvergence(t *testing.T) {
	sys := bridgeSystem(t, true)
	ls := NewLiveChaotic(sys, rt.Options{}, rt.FaultPlan{
		Seed:    9,
		Default: rt.EdgeFault{Drop: 0.05, Dup: 0.05},
	})
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
	if vs := ls.CheckLiveness(); len(vs) != 0 {
		t.Errorf("liveness under chaos: %v", vs)
	}
	if vs := ls.Tracker().Violations(); len(vs) != 0 {
		t.Errorf("violations under chaos: %v", vs)
	}
	if f := ls.Faults(); f.Duped() > 0 && ls.StaleDrops() == 0 {
		t.Errorf("%d duplicates injected but no server parked any", f.Duped())
	}
}

// TestServerDropsDuplicateUpdates pins the prototype's staleness rule at
// the server: the same update delivered twice is applied once and parked
// dead once, a replayed older update parks dead too, and neither counts as
// pending; a misrouted or corrupt envelope is dropped outright. StaleDrops
// counts all of them.
func TestServerDropsDuplicateUpdates(t *testing.T) {
	sys := bridgeSystem(t, true)
	servers := []*Server{NewServer(sys, 0), NewServer(sys, 1), NewServer(sys, 2), NewServer(sys, 3)}
	client := NewClient(sys, 1)

	var out Outcome
	mkUpdate := func(v core.Value) core.Envelope {
		t.Helper()
		req, err := client.NewRequest("c", v, false)
		if err != nil {
			t.Fatal(err)
		}
		req.Replica = 3
		out.Reset()
		servers[3].HandleRequest(req, &out)
		if len(out.Updates) != 1 {
			t.Fatalf("want 1 update, got %+v", out.Updates)
		}
		client.AbsorbResponse(out.Responses[0])
		return out.Updates[0]
	}
	// HandleUpdate recycles the Meta it is handed, so every delivery gets
	// its own copy.
	deliver := func(env core.Envelope) int {
		env.Meta = append([]byte(nil), env.Meta...)
		out.Reset()
		servers[0].HandleUpdate(env, &out)
		return len(out.Applied)
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
	if servers[0].PendingUpdates() != 0 {
		t.Errorf("%d updates live in pending after replays", servers[0].PendingUpdates())
	}
	if servers[0].StaleDrops() != 2 {
		t.Errorf("StaleDrops = %d, want 2 (both replays parked dead)", servers[0].StaleDrops())
	}
	misrouted, corrupt := u2, u2
	misrouted.To = 1
	corrupt.Meta = u2.Meta[:len(u2.Meta)-1]
	if deliver(misrouted)+deliver(corrupt) != 0 {
		t.Fatal("malformed envelope applied")
	}
	if servers[0].StaleDrops() != 4 || servers[0].PendingUpdates() != 0 {
		t.Errorf("after two malformed envelopes: StaleDrops = %d, pending = %d; want 4, 0",
			servers[0].StaleDrops(), servers[0].PendingUpdates())
	}
}

// TestServeSteadyStateAllocs pins the emit-contract payoff: once the
// vector freelist and outcome scratch are warm, serving a client write —
// request build, predicate check, τ advance, one update per recipient,
// response — allocates nothing.
func TestServeSteadyStateAllocs(t *testing.T) {
	sys := bridgeSystem(t, true)
	server := NewServer(sys, 3)
	client := NewClient(sys, 1)

	var out Outcome
	cycle := func() {
		req, err := client.NewRequest("c", 5, false)
		if err != nil {
			t.Fatal(err)
		}
		req.Replica = 3
		out.Reset()
		server.HandleRequest(req, &out)
		// Stand in for the consumers: recycle the buffers the update
		// receivers and the client would.
		for i := range out.Updates {
			sys.meta.Put(out.Updates[i].Meta)
		}
		for i := range out.Responses {
			sys.putVec(out.Responses[i].Tau)
		}
	}
	for i := 0; i < 32; i++ {
		cycle() // warm the freelist and the outcome's capacity
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 0.5 {
		t.Errorf("serve path allocates %.1f objects/op in steady state, want 0", avg)
	}
}
