package transport

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestPoolOrderPreserved(t *testing.T) {
	var p Pool
	p.Add(core.Envelope{Val: 1}, core.Envelope{Val: 2}, core.Envelope{Val: 3})
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	if got := p.Take(1); got.Val != 2 {
		t.Errorf("Take(1) = %v, want Val 2", got.Val)
	}
	// Remaining order must be 1, 3.
	if p.Peek(0).Val != 1 || p.Peek(1).Val != 3 {
		t.Errorf("order broken: %v %v", p.Peek(0).Val, p.Peek(1).Val)
	}
}

// TestPoolMatchesReference differentially tests the shifting pool against
// the obvious append-copy implementation under a random mix of adds and
// takes at arbitrary indexes: every Take must return the same message
// and leave the same relative order. A seed burst of 3000 messages comes
// first, so the mixed phase shifts both sides of a deep pool and crosses
// the dead-prefix compaction while being checked step by step.
func TestPoolMatchesReference(t *testing.T) {
	var p Pool
	var ref []core.Envelope
	rng := rand.New(rand.NewSource(42))
	next := int64(0)
	for ; next < 3000; next++ {
		env := core.Envelope{Val: core.Value(next)}
		p.Add(env)
		ref = append(ref, env)
	}
	for op := 0; op < 20000; op++ {
		if p.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, reference %d", op, p.Len(), len(ref))
		}
		if len(ref) == 0 || rng.Intn(3) == 0 {
			burst := 1 + rng.Intn(3)
			for b := 0; b < burst; b++ {
				env := core.Envelope{Val: core.Value(next)}
				next++
				p.Add(env)
				ref = append(ref, env)
			}
			continue
		}
		// Bias picks toward the ends to exercise the O(1) paths and the
		// compaction trigger, with arbitrary middles mixed in.
		var idx int
		switch rng.Intn(4) {
		case 0:
			idx = 0
		case 1:
			idx = len(ref) - 1
		default:
			idx = rng.Intn(len(ref))
		}
		got := p.Take(idx)
		want := ref[idx]
		ref = append(ref[:idx], ref[idx+1:]...)
		if got.Val != want.Val {
			t.Fatalf("op %d: Take(%d) = %v, want %v", op, idx, got.Val, want.Val)
		}
		if len(ref) > 0 {
			spot := rng.Intn(len(ref))
			if p.Peek(spot).Val != ref[spot].Val {
				t.Fatalf("op %d: Peek(%d) = %v, want %v", op, spot, p.Peek(spot).Val, ref[spot].Val)
			}
		}
	}
}

// TestPoolFIFODrainCompacts drives the pure-FIFO pattern that builds the
// dead prefix and verifies draining to empty across compactions.
func TestPoolFIFODrainCompacts(t *testing.T) {
	var p Pool
	const total = 2000 // crosses the dead-prefix compaction many times
	for i := 0; i < total; i++ {
		p.Add(core.Envelope{Val: core.Value(i)})
	}
	for i := 0; i < total; i++ {
		if got := p.Take(0); got.Val != core.Value(i) {
			t.Fatalf("Take #%d = %v", i, got.Val)
		}
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after drain", p.Len())
	}
	// Pool remains usable after full drain.
	p.Add(core.Envelope{Val: 999})
	if p.Len() != 1 || p.Take(0).Val != 999 {
		t.Fatal("pool unusable after drain")
	}
}

// TestPoolLIFODrainTrims drives the pure-LIFO pattern: every take hits
// the O(1) tail path.
func TestPoolLIFODrainTrims(t *testing.T) {
	var p Pool
	const total = 2000
	for i := 0; i < total; i++ {
		p.Add(core.Envelope{Val: core.Value(i)})
	}
	for i := total - 1; i >= 0; i-- {
		if got := p.Take(p.Len() - 1); got.Val != core.Value(i) {
			t.Fatalf("LIFO take = %v, want %v", got.Val, i)
		}
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after drain", p.Len())
	}
}

// TestPoolInteriorSelection takes the exact middle until empty, checking
// the returned message and the surviving order every step. Middle takes
// never touch the O(1) head and tail fast paths, so every removal
// exercises the memmove path on alternating sides.
func TestPoolInteriorSelection(t *testing.T) {
	var p Pool
	var ref []core.Envelope
	const total = 5000
	for i := 0; i < total; i++ {
		env := core.Envelope{Val: core.Value(i)}
		p.Add(env)
		ref = append(ref, env)
	}
	for len(ref) > 0 {
		idx := len(ref) / 2
		got, want := p.Take(idx), ref[idx]
		ref = append(ref[:idx], ref[idx+1:]...)
		if got.Val != want.Val {
			t.Fatalf("Take(%d) = %v, want %v", idx, got.Val, want.Val)
		}
		if len(ref) > 0 {
			for _, spot := range []int{0, len(ref) / 4, len(ref) - 1} {
				if p.Peek(spot).Val != ref[spot].Val {
					t.Fatalf("Peek(%d) = %v, want %v", spot, p.Peek(spot).Val, ref[spot].Val)
				}
			}
		}
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after drain", p.Len())
	}
}

// TestPoolShrinksAfterHighWater checks that a pool that once held many
// messages keeps behaving correctly after the population collapses.
func TestPoolShrinksAfterHighWater(t *testing.T) {
	var p Pool
	var ref []core.Envelope
	for i := 0; i < 4096; i++ {
		env := core.Envelope{Val: core.Value(i)}
		p.Add(env)
		ref = append(ref, env)
	}
	rng := rand.New(rand.NewSource(7))
	for p.Len() > 8 {
		idx := rng.Intn(len(ref))
		got, want := p.Take(idx), ref[idx]
		ref = append(ref[:idx], ref[idx+1:]...)
		if got.Val != want.Val {
			t.Fatalf("Take(%d) = %v, want %v", idx, got.Val, want.Val)
		}
	}
	for i := 0; i < 100; i++ { // stays usable at the small size
		p.Add(core.Envelope{Val: core.Value(10000 + i)})
		ref = append(ref, core.Envelope{Val: core.Value(10000 + i)})
	}
	for len(ref) > 0 {
		idx := rng.Intn(len(ref))
		got, want := p.Take(idx), ref[idx]
		ref = append(ref[:idx], ref[idx+1:]...)
		if got.Val != want.Val {
			t.Fatalf("post-shrink Take(%d) = %v, want %v", idx, got.Val, want.Val)
		}
	}
}

func TestSchedulers(t *testing.T) {
	if (FIFOScheduler{}).Pick(5) != 0 {
		t.Error("FIFO should pick 0")
	}
	if (LIFOScheduler{}).Pick(5) != 4 {
		t.Error("LIFO should pick n-1")
	}
	r1, r2 := NewRandom(7), NewRandom(7)
	for i := 0; i < 100; i++ {
		if r1.Pick(10) != r2.Pick(10) {
			t.Fatal("random scheduler not deterministic per seed")
		}
	}
	for _, s := range []Scheduler{FIFOScheduler{}, LIFOScheduler{}, NewRandom(1), NewScripted(1)} {
		if s.Name() == "" {
			t.Error("empty scheduler name")
		}
		if got := s.Pick(1); got != 0 {
			t.Errorf("%s: Pick(1) = %d, want 0", s.Name(), got)
		}
	}
}

func TestScriptedScheduler(t *testing.T) {
	s := NewScripted(2, 99, -1)
	if got := s.Pick(5); got != 2 {
		t.Errorf("pick 1 = %d, want 2", got)
	}
	if got := s.Pick(3); got != 2 { // 99 clamped to n-1
		t.Errorf("pick 2 = %d, want 2", got)
	}
	if got := s.Pick(3); got != 0 { // -1 clamped to 0
		t.Errorf("pick 3 = %d, want 0", got)
	}
	if got := s.Pick(9); got != 0 { // exhausted → FIFO fallback
		t.Errorf("pick 4 = %d, want 0", got)
	}
}
