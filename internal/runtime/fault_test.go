package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// edgeMsg is a testMsg that also knows its sender, so the fault layer
// keys its lotteries and cuts on the real (from, to) pair.
type edgeMsg struct {
	from, to int
	val      int
}

func (m edgeMsg) Dest() int   { return m.to }
func (m edgeMsg) Source() int { return m.from }

// collectEngine builds a fault-injected engine that counts deliveries
// per (from, val) and returns the engine plus the delivery counter map.
func collectEngine(t *testing.T, dests int, plan FaultPlan) (*Engine[edgeMsg], *sync.Map, *atomic.Int64) {
	t.Helper()
	var seen sync.Map // edgeMsg → *atomic.Int64
	var total atomic.Int64
	clone := func(m edgeMsg) edgeMsg { return m }
	eng := NewWithFaults(dests, Options{Workers: 2}, plan, clone, func(m edgeMsg) {
		c, _ := seen.LoadOrStore(m, new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		total.Add(1)
	})
	return eng, &seen, &total
}

// TestFaultLotteryDeterministic pins the lottery to (seed, edge, stream,
// counter): two injectors with identical plans draw identical sequences.
func TestFaultLotteryDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 42, Default: EdgeFault{Drop: 0.5}}.withDefaults()
	a := newFaultInjector[edgeMsg](nil, plan, nil)
	b := newFaultInjector[edgeMsg](nil, plan, nil)
	for i := 0; i < 100; i++ {
		av := a.roll(1, 2, streamDrop)
		bv := b.roll(1, 2, streamDrop)
		if av != bv {
			t.Fatalf("draw %d: %v != %v", i, av, bv)
		}
		if av < 0 || av >= 1 {
			t.Fatalf("draw %d out of [0,1): %v", i, av)
		}
	}
	// Distinct streams on the same edge draw independent sequences.
	if a.roll(1, 2, streamDrop) == a.roll(1, 2, streamDup) {
		t.Error("drop and dup streams should not coincide (vanishingly unlikely)")
	}
	c := newFaultInjector[edgeMsg](nil, FaultPlan{Seed: 43, Default: EdgeFault{Drop: 0.5}}.withDefaults(), nil)
	if a.roll(3, 4, streamDrop) == c.roll(3, 4, streamDrop) {
		t.Error("different seeds should draw different sequences (vanishingly unlikely)")
	}
}

// TestFaultDropsRetransmit: with heavy loss, every message still
// delivers exactly once after Quiesce — drops divert to the retransmit
// queue, they never vanish.
func TestFaultDropsRetransmit(t *testing.T) {
	plan := FaultPlan{
		Seed:           7,
		Default:        EdgeFault{Drop: 0.5},
		RetransmitBase: 100 * time.Microsecond,
	}
	eng, seen, total := collectEngine(t, 4, plan)
	const msgs = 400
	for i := 0; i < msgs; i++ {
		m := edgeMsg{from: i % 4, to: (i + 1) % 4, val: i}
		if eng.Send(m) != 1 {
			t.Fatalf("send %d rejected", i)
		}
	}
	eng.Quiesce()
	if got := total.Load(); got != msgs {
		t.Fatalf("delivered %d messages, want %d", got, msgs)
	}
	seen.Range(func(k, v any) bool {
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("message %v delivered %d times, want 1", k, n)
		}
		return true
	})
	if eng.Faults().Dropped() == 0 {
		t.Error("expected some transmissions to be diverted at Drop=0.5")
	}
	eng.Close()
}

// TestFaultDuplication: duplicated messages deliver at least twice and
// every message still delivers at least once.
func TestFaultDuplication(t *testing.T) {
	plan := FaultPlan{Seed: 11, Default: EdgeFault{Dup: 0.5}}
	eng, seen, total := collectEngine(t, 4, plan)
	const msgs = 400
	for i := 0; i < msgs; i++ {
		eng.Send(edgeMsg{from: i % 4, to: (i + 1) % 4, val: i})
	}
	eng.Quiesce()
	duped := eng.Faults().Duped()
	if duped == 0 {
		t.Fatal("expected duplicates at Dup=0.5")
	}
	if got := total.Load(); got != msgs+int64(duped) {
		t.Fatalf("delivered %d messages, want %d originals + %d duplicates", got, msgs, duped)
	}
	count := 0
	seen.Range(func(k, v any) bool { count++; return true })
	if count != msgs {
		t.Fatalf("saw %d distinct messages, want %d", count, msgs)
	}
	eng.Close()
}

// TestFaultPartitionHeal: a cut edge parks its traffic; Heal delivers
// the backlog; other edges flow normally throughout.
func TestFaultPartitionHeal(t *testing.T) {
	eng, _, total := collectEngine(t, 3, FaultPlan{Seed: 3})
	f := eng.Faults()
	f.Cut(0, 1, 0) // manual heal
	for i := 0; i < 10; i++ {
		eng.Send(edgeMsg{from: 0, to: 1, val: i}) // parks
		eng.Send(edgeMsg{from: 0, to: 2, val: i}) // flows
	}
	eng.Quiesce()
	if got := total.Load(); got != 10 {
		t.Fatalf("delivered %d with the cut in place, want 10 (uncut edge only)", got)
	}
	if parked := f.ParkedMessages(); parked != 10 {
		t.Fatalf("parked %d, want 10", parked)
	}
	f.Heal(0, 1)
	eng.Quiesce()
	if got := total.Load(); got != 20 {
		t.Fatalf("delivered %d after heal, want 20", got)
	}
	eng.Close()
}

// TestFaultScheduledHeal: a cut with a deadline heals on its own.
func TestFaultScheduledHeal(t *testing.T) {
	eng, _, total := collectEngine(t, 2, FaultPlan{Seed: 5, RetransmitBase: 100 * time.Microsecond})
	eng.Faults().CutBoth(0, 1, 5*time.Millisecond)
	eng.Send(edgeMsg{from: 0, to: 1, val: 1})
	eng.Send(edgeMsg{from: 1, to: 0, val: 2})
	deadline := time.Now().Add(2 * time.Second)
	for total.Load() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := total.Load(); got != 2 {
		t.Fatalf("scheduled heal never delivered the backlog (got %d)", got)
	}
	eng.Close()
}

// TestFaultDisabledPath: an engine built with New has no injector and
// behaves exactly as before.
func TestFaultDisabledPath(t *testing.T) {
	var total atomic.Int64
	eng := New(2, Options{Workers: 2}, func(m edgeMsg) { total.Add(1) })
	if eng.Faults() != nil {
		t.Fatal("plain engine should have no fault injector")
	}
	eng.Send(edgeMsg{from: 0, to: 1})
	eng.Quiesce()
	if total.Load() != 1 {
		t.Fatalf("delivered %d, want 1", total.Load())
	}
	eng.Close()
}

// TestCloseUnderActiveLossInjection is the shutdown-determinism check
// (run under -race): Close racing a storm of lossy sends and forwards
// must cancel every pending retransmit, drop the parked backlogs, and
// leave the engine fully drained — no retransmit timer may fire into a
// closed engine, and no goroutine may still hold a message afterwards.
func TestCloseUnderActiveLossInjection(t *testing.T) {
	for round := 0; round < 5; round++ {
		plan := FaultPlan{
			Seed:           int64(round + 1),
			Default:        EdgeFault{Drop: 0.4, Dup: 0.2},
			RetransmitBase: 100 * time.Microsecond,
		}
		var total atomic.Int64
		clone := func(m edgeMsg) edgeMsg { return m }
		eng := NewWithFaults(4, Options{Workers: 3, InboxCapacity: 16}, plan, clone, func(m edgeMsg) {
			total.Add(1)
		})
		// One edge is cut, so both parking books (retransmit, partition)
		// have live entries at Close time.
		eng.Faults().Cut(0, 2, 0)

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					m := edgeMsg{from: s, to: (s + 1 + i) % 4, val: i}
					if i%3 == 0 {
						eng.Forward(m)
					} else if eng.Send(m) == 0 {
						return // engine refused: shutdown reached us
					}
				}
			}(s)
		}
		time.Sleep(2 * time.Millisecond) // let drops, dups and retransmits accumulate
		eng.Close()
		close(stop)
		wg.Wait()

		if n := eng.Faults().ParkedMessages(); n != 0 {
			t.Fatalf("round %d: %d messages still parked after Close", round, n)
		}
		if n := eng.Outstanding(); n != 0 {
			t.Fatalf("round %d: %d messages outstanding after Close", round, n)
		}
		if got := eng.Send(edgeMsg{from: 0, to: 1}); got != 0 {
			t.Fatalf("round %d: Send accepted %d after Close", round, got)
		}
		if eng.Faults().Dropped() == 0 {
			t.Fatalf("round %d: loss lottery never fired; the race window was empty", round)
		}
	}
}
