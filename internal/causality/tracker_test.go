package causality

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sharegraph"
)

func TestFig2HappenedBefore(t *testing.T) {
	// Reproduces the Figure 2 example: three replicas r1,r2,r3 (0,1,2).
	// r1 issues u1, u2; r2 issues u3; r3 issues u4. u2 is applied at r2
	// before u3 is issued; u3 is applied at r3; u4 is independent.
	// Expected: u1 ↪ u2, u2 ↪ u3, u1 ↪ u3 (transitivity); u1,u2 ∥ u4.
	g, err := sharegraph.New([][]sharegraph.Register{
		{"a", "b"},
		{"b", "c"},
		{"c", "d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(g)
	u1 := tr.OnIssue(0, "a")
	u2 := tr.OnIssue(0, "b")
	tr.OnApply(1, u2)
	u3 := tr.OnIssue(1, "c")
	u4 := tr.OnIssue(2, "d") // issued before u3 reaches r3 → concurrent
	tr.OnApply(2, u3)

	if !tr.HappenedBefore(u1, u2) {
		t.Error("u1 ↪ u2 expected (condition (i))")
	}
	if !tr.HappenedBefore(u2, u3) {
		t.Error("u2 ↪ u3 expected (u2 applied at r2 before r2 issued u3)")
	}
	if !tr.HappenedBefore(u1, u3) {
		t.Error("u1 ↪ u3 expected (condition (ii), transitivity)")
	}
	if !tr.Concurrent(u1, u4) || !tr.Concurrent(u2, u4) {
		t.Error("u1 and u2 should be concurrent with u4")
	}
	if tr.HappenedBefore(u3, u2) {
		t.Error("↪ must be antisymmetric here")
	}
	if tr.Concurrent(u1, u1) {
		t.Error("an update is not concurrent with itself")
	}
	if !tr.Ok() {
		t.Errorf("unexpected violations: %v", tr.Violations())
	}
}

func TestSafetyViolationDetected(t *testing.T) {
	// 0 and 1 share both x and y. 0 writes x (u1) then y (u2): u1 ↪ u2.
	// Applying u2 at replica 1 before u1 violates safety.
	g, err := sharegraph.New([][]sharegraph.Register{
		{"x", "y"},
		{"x", "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(g)
	u1 := tr.OnIssue(0, "x")
	u2 := tr.OnIssue(0, "y")
	tr.OnApply(1, u2) // out of causal order
	vs := tr.Violations()
	if len(vs) != 1 || vs[0].Kind != SafetyViolation || vs[0].Missing != u1 || vs[0].Update != u2 {
		t.Fatalf("expected one safety violation (missing u1), got %v", vs)
	}
	if vs[0].String() == "" {
		t.Error("empty violation string")
	}
}

func TestSafetyIgnoresForeignRegisters(t *testing.T) {
	// Fig 3 path: 2 does not store x, so applying 1's y-update at 2
	// without 0's x-update is fine even though the x-update ↪ y-update.
	g := sharegraph.Fig3Example()
	tr := NewTracker(g)
	ux := tr.OnIssue(0, "x")
	tr.OnApply(1, ux)
	uy := tr.OnIssue(1, "y")
	tr.OnApply(2, uy)
	if !tr.Ok() {
		t.Errorf("unexpected violations: %v", tr.Violations())
	}
	if !tr.HappenedBefore(ux, uy) {
		t.Error("ux ↪ uy expected")
	}
}

func TestDuplicateAndForeignApply(t *testing.T) {
	g := sharegraph.Fig3Example()
	tr := NewTracker(g)
	u := tr.OnIssue(0, "x")
	tr.OnApply(1, u)
	tr.OnApply(1, u) // duplicate
	tr.OnApply(3, u) // replica 3 does not store x
	tr.OnApply(1, UpdateID(99))
	kinds := map[ViolationKind]int{}
	for _, v := range tr.Violations() {
		kinds[v.Kind]++
	}
	if kinds[DuplicateApply] != 1 || kinds[ForeignApply] != 2 {
		t.Errorf("violations = %v", tr.Violations())
	}
	for _, k := range []ViolationKind{SafetyViolation, DuplicateApply, ForeignApply, LivenessViolation, ViolationKind(99)} {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
}

func TestLivenessCheck(t *testing.T) {
	g := sharegraph.Fig3Example()
	tr := NewTracker(g)
	u := tr.OnIssue(0, "x") // x stored at 0 and 1; never applied at 1
	vs := tr.CheckLiveness()
	if len(vs) != 1 || vs[0].Kind != LivenessViolation || vs[0].Replica != 1 || vs[0].Update != u {
		t.Fatalf("expected liveness violation at replica 1, got %v", vs)
	}
	// After applying, a fresh tracker run is clean.
	tr2 := NewTracker(g)
	u2 := tr2.OnIssue(0, "x")
	tr2.OnApply(1, u2)
	if vs := tr2.CheckLiveness(); len(vs) != 0 {
		t.Errorf("unexpected liveness violations: %v", vs)
	}
}

func TestOracleDeliverable(t *testing.T) {
	// Fig5 triangle 0–1–3 sharing y.
	g := sharegraph.Fig5Example()
	tr := NewTracker(g)
	u1 := tr.OnIssue(0, "y")
	tr.OnApply(1, u1)
	u2 := tr.OnIssue(1, "y")
	if tr.OracleDeliverable(3, u2) {
		t.Error("u2 should not be deliverable at 3 before u1")
	}
	if !tr.OracleDeliverable(3, u1) {
		t.Error("u1 should be deliverable at 3")
	}
	tr.OnApply(3, u1)
	if !tr.OracleDeliverable(3, u2) {
		t.Error("u2 should be deliverable at 3 after u1 applied")
	}
	if tr.OracleDeliverable(3, UpdateID(42)) {
		t.Error("unknown update reported deliverable")
	}
}

func TestCausalPastSize(t *testing.T) {
	g, err := sharegraph.New([][]sharegraph.Register{{"x"}, {"x"}})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(g)
	var last UpdateID
	for i := 0; i < 5; i++ {
		last = tr.OnIssue(0, "x")
	}
	if got := tr.CausalPastSize(last); got != 4 {
		t.Errorf("CausalPastSize = %d, want 4", got)
	}
	if tr.CausalPastSize(UpdateID(99)) != 0 {
		t.Error("unknown update should have empty past")
	}
	if tr.NumUpdates() != 5 {
		t.Errorf("NumUpdates = %d, want 5", tr.NumUpdates())
	}
	if !tr.Applied(0, last) || tr.Applied(1, last) {
		t.Error("Applied bookkeeping wrong")
	}
}

// TestHappenedBeforeTransitiveProperty: ↪ is transitively closed in the
// tracker for arbitrary event interleavings on a shared-everything system.
func TestHappenedBeforeTransitiveProperty(t *testing.T) {
	g, err := sharegraph.New([][]sharegraph.Register{
		{"x", "y", "z"}, {"x", "y", "z"}, {"x", "y", "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	regs := []sharegraph.Register{"x", "y", "z"}
	prop := func(script []uint8) bool {
		tr := NewTracker(g)
		var issued []UpdateID
		for _, b := range script {
			replica := sharegraph.ReplicaID(b % 3)
			if b%2 == 0 || len(issued) == 0 {
				issued = append(issued, tr.OnIssue(replica, regs[(b/4)%3]))
				continue
			}
			// Apply the oldest not-yet-applied update at this replica in
			// causal order (so we never create violations).
			for _, id := range issued {
				if !tr.Applied(replica, id) && tr.OracleDeliverable(replica, id) {
					tr.OnApply(replica, id)
					break
				}
			}
		}
		if !tr.Ok() {
			return false
		}
		// Transitivity: a ↪ b and b ↪ c imply a ↪ c.
		n := tr.NumUpdates()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if !tr.HappenedBefore(UpdateID(a), UpdateID(b)) {
					continue
				}
				for c := 0; c < n; c++ {
					if tr.HappenedBefore(UpdateID(b), UpdateID(c)) &&
						!tr.HappenedBefore(UpdateID(a), UpdateID(c)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTrackerConcurrencySafe(t *testing.T) {
	g := sharegraph.FullReplication(4, 2)
	tr := NewTracker(g)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tr.OnIssue(sharegraph.ReplicaID(r), "r0")
				_ = tr.OracleDeliverable(sharegraph.ReplicaID((r+1)%4), id)
				_ = tr.CausalPastSize(id)
			}
		}(r)
	}
	wg.Wait()
	if tr.NumUpdates() != 800 {
		t.Errorf("NumUpdates = %d, want 800", tr.NumUpdates())
	}
}

func TestBitset(t *testing.T) {
	b := &bitset{}
	b.set(3)
	b.set(200)
	if !b.has(3) || !b.has(200) || b.has(4) || b.has(1000) {
		t.Error("set/has wrong")
	}
	if b.count() != 2 {
		t.Errorf("count = %d, want 2", b.count())
	}
	c := b.clone()
	c.set(5)
	if b.has(5) {
		t.Error("clone shares storage")
	}
	d := &bitset{}
	d.set(64)
	d.orWith(b)
	if !d.has(3) || !d.has(64) || !d.has(200) {
		t.Error("orWith lost bits")
	}
	var got []int
	mask := &bitset{}
	mask.set(3)
	mask.set(200)
	mask.set(201)
	d.clear(3)
	d.forEachAnd(mask, func(i int) { got = append(got, i) })
	if len(got) != 1 || got[0] != 200 {
		t.Errorf("forEachAnd after clear = %v, want [200]", got)
	}
}

func BenchmarkTrackerIssueApply(b *testing.B) {
	g := sharegraph.Ring(8)
	for _, impl := range []struct {
		name string
		mk   func(*sharegraph.Graph) issueApplier
	}{
		{"vector", func(g *sharegraph.Graph) issueApplier { return NewTracker(g) }},
		{"flat", func(g *sharegraph.Graph) issueApplier { return newFlatTracker(g) }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			tr := impl.mk(g)
			for n := 0; n < b.N; n++ {
				// Causal pasts grow with execution length; reset
				// periodically so the benchmark measures steady-state cost
				// at a realistic history size rather than an ever-growing
				// one.
				if n%4096 == 0 {
					tr = impl.mk(g)
				}
				id := tr.OnIssue(0, sharegraph.Register("ring0"))
				tr.OnApply(1, id)
			}
		})
	}
}
