package clientserver

// Differential tests between the two client-server runtimes: with every
// register written by exactly one client (values pinned via ClientOp.Val,
// issued in session order), the final register state is
// schedule-independent, so the live worker-pool deployment and the
// deterministic runner must converge to identical register contents at
// every replica — and both must satisfy the Definition 26 oracle. Run
// with -race this also hammers the engine port's locking.

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/transport"
)

// ringClientSystem builds the Appendix E deployment over Ring(n): client
// c accesses replicas {c, c+1 mod n} and owns register ring<c> (stored at
// exactly those replicas), so client programs are single-writer per
// register.
func ringClientSystem(t testing.TB, n int) *System {
	t.Helper()
	g := sharegraph.Ring(n)
	clients := make(sharegraph.ClientAssignment, n)
	for c := 0; c < n; c++ {
		clients[c] = []sharegraph.ReplicaID{sharegraph.ReplicaID(c), sharegraph.ReplicaID((c + 1) % n)}
	}
	aug, err := sharegraph.NewAugmented(g, clients)
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(aug)
}

// ownerScripts builds one program per client: client c writes ring<c>
// with pinned, strictly increasing values, interleaved with reads of the
// registers it can reach (reads exercise predicate J1 without touching
// state).
func ownerScripts(n, writes int) [][]ClientOp {
	scripts := make([][]ClientOp, n)
	for c := 0; c < n; c++ {
		own := sharegraph.Register(fmt.Sprintf("ring%d", c))
		neighbour := sharegraph.Register(fmt.Sprintf("ring%d", (c+1)%n))
		for k := 1; k <= writes; k++ {
			// Values are pinned unique to (client, write index), so both
			// runtimes write identical data.
			scripts[c] = append(scripts[c], ClientOp{Reg: own, Val: core.Value(c*1000 + k)})
			if k%3 == 0 {
				scripts[c] = append(scripts[c], ClientOp{Reg: neighbour, IsRead: true})
			}
		}
	}
	return scripts
}

func TestLiveMatchesDeterministicRunner(t *testing.T) {
	const n = 6
	const writes = 15
	scripts := ownerScripts(n, writes)

	// Deterministic runner under a seeded-random schedule.
	sys := ringClientSystem(t, n)
	res, err := Run(RunConfig{
		Sys: sys, Scripts: scripts,
		Sched: transport.NewRandom(11), CaptureState: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("deterministic run not clean: %+v", res)
	}

	// Live worker-pool deployment, fresh system, small inboxes to
	// exercise backpressure; one goroutine per client issues its program
	// in session order.
	for _, seed := range []int64{1, 42} {
		ls := newLive(t, ringClientSystem(t, n), sim.WithWorkers(4), sim.WithInboxCapacity(8),
			sim.WithSeed(seed), sim.WithMaxDelay(50*time.Microsecond))
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lc := ls.Client(sharegraph.ClientID(c))
				for _, op := range scripts[c] {
					if op.IsRead {
						if _, err := lc.Read(op.Reg); err != nil {
							t.Errorf("client %d read %q: %v", c, op.Reg, err)
						}
						continue
					}
					if err := lc.Write(op.Reg, op.Val); err != nil {
						t.Errorf("client %d write %q: %v", c, op.Reg, err)
					}
				}
			}(c)
		}
		wg.Wait()
		ls.Quiesce()
		if vs := ls.Tracker().CheckLiveness(); len(vs) != 0 {
			t.Errorf("seed %d: liveness violations: %v", seed, vs)
		}
		if vs := ls.Tracker().Violations(); len(vs) != 0 {
			t.Errorf("seed %d: live run violations: %v", seed, vs)
		}
		live := ls.StateSnapshot()
		if ls.MessagesSent() == 0 || ls.MetaBytes() == 0 {
			t.Errorf("seed %d: empty transport stats (%d updates, %d bytes)",
				seed, ls.MessagesSent(), ls.MetaBytes())
		}
		ls.Close()
		if !reflect.DeepEqual(res.FinalState, live) {
			t.Errorf("seed %d: final states diverge:\nrunner: %v\nlive:   %v",
				seed, res.FinalState, live)
		}
	}
}

// TestLiveBoundedGoroutines pins the engine-port property the redesign is
// for: with many updates in flight, the goroutine count stays at workers
// + clients + constant overhead — never O(messages), as under the old
// go ls.deliver(u) per-update dispatch.
func TestLiveBoundedGoroutines(t *testing.T) {
	const n = 8
	const workers = 3
	scripts := ownerScripts(n, 40)
	before := runtime.NumGoroutine()
	ls := newLive(t, ringClientSystem(t, n), sim.WithWorkers(workers), sim.WithMaxDelay(200*time.Microsecond))
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lc := ls.Client(sharegraph.ClientID(c))
				for _, op := range scripts[c] {
					if op.IsRead {
						_, _ = lc.Read(op.Reg)
					} else {
						_ = lc.Write(op.Reg, op.Val)
					}
				}
			}(c)
		}
		wg.Wait()
	}()
	peak := 0
	for {
		select {
		case <-done:
			// Bound: baseline + workers + n client drivers + the driver
			// spawner + slack for unrelated runtime goroutines.
			if bound := before + workers + n + 8; peak > bound {
				t.Errorf("goroutine count not bounded by pool: peak %d (baseline %d, %d workers, %d clients)",
					peak, before, workers, n)
			}
			ls.Quiesce()
			if vs := ls.Tracker().Violations(); len(vs) != 0 {
				t.Errorf("violations: %v", vs)
			}
			ls.Close()
			if ls.Outstanding() != 0 {
				t.Errorf("Close left %d outstanding", ls.Outstanding())
			}
			if after := runtime.NumGoroutine(); after > before+2 {
				t.Errorf("goroutines leaked: %d before, %d after Close", before, after)
			}
			return
		default:
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
}
