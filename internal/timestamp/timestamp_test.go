package timestamp

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sharegraph"
)

func newSpace(t testing.TB, g *sharegraph.Graph) *Space {
	t.Helper()
	s, err := NewSpace(g, sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	g := sharegraph.Fig3Example()
	graphs := sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{})
	if _, err := NewSpace(g, graphs[:2]); err == nil {
		t.Error("short graph slice accepted")
	}
	swapped := append([]*sharegraph.TSGraph(nil), graphs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := NewSpace(g, swapped); err == nil {
		t.Error("misowned graphs accepted")
	}
}

func TestAdvanceIncrementsSharers(t *testing.T) {
	g := sharegraph.Fig3Example() // path: 0–1 share x, 1–2 share y, 2–3 share z
	s := newSpace(t, g)

	τ := s.Zero(1)
	// Replica 1 writes x, shared only with replica 0: exactly e(1→0) bumps.
	τ2 := s.Advance(1, τ, "x")
	g1 := s.Graph(1)
	idx10, _ := g1.Index(sharegraph.Edge{From: 1, To: 0})
	idx12, _ := g1.Index(sharegraph.Edge{From: 1, To: 2})
	if τ2[idx10] != 1 {
		t.Errorf("e(1->0) counter = %d, want 1", τ2[idx10])
	}
	if τ2[idx12] != 0 {
		t.Errorf("e(1->2) counter = %d, want 0", τ2[idx12])
	}
	// Original must be untouched (value semantics at the API boundary).
	if !τ.Equal(s.Zero(1)) {
		t.Error("Advance mutated its input")
	}
	// Writing a register not shared with anyone changes nothing.
	τ3 := s.Advance(1, τ, "nonexistent")
	if !τ3.Equal(τ) {
		t.Error("Advance on unshared register changed the vector")
	}
}

func TestMergeMaxOverIntersection(t *testing.T) {
	g := sharegraph.Fig5Example()
	s := newSpace(t, g)
	τ0 := s.Zero(0)
	τ1 := s.Zero(1)
	// Bump a few counters on replica 1's vector.
	τ1 = s.Advance(1, τ1, "y") // edges 1→0 and 1→3 (y shared with 0 and 3)
	merged := s.Merge(0, τ0, 1, τ1)
	g0 := s.Graph(0)
	idx10, _ := g0.Index(sharegraph.Edge{From: 1, To: 0})
	if merged[idx10] != 1 {
		t.Errorf("merged e(1->0) = %d, want 1", merged[idx10])
	}
	// Merge must not lower anything: merging zero in changes nothing.
	again := s.Merge(0, merged, 1, s.Zero(1))
	if !again.Equal(merged) {
		t.Error("merging a zero vector lowered counters")
	}
}

func TestDeliverableFIFOPerEdge(t *testing.T) {
	g := sharegraph.Fig3Example()
	s := newSpace(t, g)
	// Replica 0 writes x twice; the two updates carry counters 1 and 2 on
	// e(0→1). Replica 1 must apply them in order.
	τ0 := s.Zero(0)
	T1 := s.Advance(0, τ0, "x")
	T2 := s.Advance(0, T1, "x")

	τ1 := s.Zero(1)
	if s.Deliverable(1, τ1, 0, T2) {
		t.Error("second update deliverable before first")
	}
	if !s.Deliverable(1, τ1, 0, T1) {
		t.Error("first update not deliverable")
	}
	τ1 = s.Merge(1, τ1, 0, T1)
	if !s.Deliverable(1, τ1, 0, T2) {
		t.Error("second update not deliverable after first applied")
	}
	τ1 = s.Merge(1, τ1, 0, T2)
	if s.Deliverable(1, τ1, 0, T2) {
		t.Error("already-applied update still deliverable")
	}
}

func TestDeliverableTransitiveDependency(t *testing.T) {
	// Fig 3 path: 0 –x– 1 –y– 2. Replica 1 applies 0's x-update, then
	// writes y. Replica 2 receives 1's update; predicate J at 2 only sees
	// edges ending at 2, so it is immediately deliverable — the paper's
	// point is that 2 need not wait for 0's update (it does not store x).
	g := sharegraph.Fig3Example()
	s := newSpace(t, g)
	T0 := s.Advance(0, s.Zero(0), "x")
	τ1 := s.Merge(1, s.Zero(1), 0, T0)
	T1 := s.Advance(1, τ1, "y")
	if !s.Deliverable(2, s.Zero(2), 1, T1) {
		t.Error("update with no causal predecessor on 2's registers blocked")
	}
}

func TestDeliverableChainOnTriangle(t *testing.T) {
	// Triangle where all three replicas share pairwise registers; use
	// Fig5's triangle 0–1–3 (y shared by all three). An update from 1 that
	// causally follows an update from 0 must wait at 3 until 0's arrives.
	g := sharegraph.Fig5Example()
	s := newSpace(t, g)

	T0 := s.Advance(0, s.Zero(0), "y") // 0 writes y → sent to 1 and 3
	τ1 := s.Merge(1, s.Zero(1), 0, T0) // 1 applies it
	T1 := s.Advance(1, τ1, "y")        // 1 writes y → sent to 0 and 3

	τ3 := s.Zero(3)
	if s.Deliverable(3, τ3, 1, T1) {
		t.Error("dependent update deliverable at 3 before its dependency from 0")
	}
	if !s.Deliverable(3, τ3, 0, T0) {
		t.Error("origin update not deliverable at 3")
	}
	τ3 = s.Merge(3, τ3, 0, T0)
	if !s.Deliverable(3, τ3, 1, T1) {
		t.Error("dependent update still blocked after dependency applied")
	}
}

func TestDeliverableUnrelatedSender(t *testing.T) {
	g := sharegraph.Fig3Example()
	s := newSpace(t, g)
	// Replicas 0 and 3 share nothing: no plan, never deliverable.
	if s.Deliverable(3, s.Zero(3), 0, s.Zero(0)) {
		t.Error("update deliverable between non-adjacent replicas")
	}
}

// TestTruncatedSpaceDegenerates: a Space over weakened edge sets (the
// Theorem 8 experiments and Appendix D truncations) must degrade
// predictably — advance skips missing outgoing edges and the delivery
// plan for a stripped incident edge reports undeliverable, never panics.
func TestTruncatedSpaceDegenerates(t *testing.T) {
	g := sharegraph.Fig3Example()
	graphs := sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{})
	// Strip all of replica 1's edges except e(1->2).
	graphs[1] = sharegraph.NewTSGraphFromEdges(1, []sharegraph.Edge{{From: 1, To: 2}})
	s, err := NewSpace(g, graphs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len(1) != 1 {
		t.Fatalf("Len(1) = %d", s.Len(1))
	}
	// Writing x (shared with 0) increments nothing: e(1->0) is untracked.
	τ := s.Advance(1, s.Zero(1), "x")
	if !τ.Equal(s.Zero(1)) {
		t.Error("advance incremented an untracked edge")
	}
	if len(s.AdvanceIndexes(1, "y")) != 1 {
		t.Error("tracked outgoing edge missing from advance plan")
	}
	// Updates from 0 to 1 can never be delivered: e(0->1) untracked by 1.
	T := s.Advance(0, s.Zero(0), "x")
	if s.Deliverable(1, s.Zero(1), 0, T) {
		t.Error("delivery possible despite missing e(0->1) counter")
	}
	// And updates from 1 to 2 can never be delivered at 2: the SENDER
	// lacks e(1->2)? No — sender tracks e(1->2); receiver 2 tracks it too,
	// so this direction still works.
	T12 := s.Advance(1, s.Zero(1), "y")
	if !s.Deliverable(2, s.Zero(2), 1, T12) {
		t.Error("intact direction broken by unrelated stripping")
	}
}

func randomVec(rng *rand.Rand, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = uint64(rng.Intn(50))
	}
	return v
}

// TestMergeAlgebraProperties: merge is commutative, associative and
// idempotent on aligned vectors (same owner pair), and monotone.
func TestMergeAlgebraProperties(t *testing.T) {
	g := sharegraph.Fig5Example()
	s := newSpace(t, g)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		i, k := sharegraph.ReplicaID(0), sharegraph.ReplicaID(1)
		a := randomVec(rng, s.Len(i))
		b := randomVec(rng, s.Len(k))
		c := randomVec(rng, s.Len(k))

		// Idempotence: merging a vector derived from a's own values is a no-op
		// when the source carries nothing newer.
		m := s.Merge(i, a, k, s.Zero(k))
		if !m.Equal(a) {
			return false
		}
		// Monotonicity: merged ≥ a pointwise.
		m = s.Merge(i, a, k, b)
		for p := range a {
			if m[p] < a[p] {
				return false
			}
		}
		// Order independence: merge(merge(a,b),c) == merge(merge(a,c),b).
		abc := s.Merge(i, s.Merge(i, a, k, b), k, c)
		acb := s.Merge(i, s.Merge(i, a, k, c), k, b)
		return abc.Equal(acb)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAdvanceMonotoneProperty: advance never decreases any counter and
// increments at least one counter for shared registers.
func TestAdvanceMonotoneProperty(t *testing.T) {
	g := sharegraph.Fig5Example()
	s := newSpace(t, g)
	regs := g.Registers()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		i := sharegraph.ReplicaID(rng.Intn(g.NumReplicas()))
		x := regs[rng.Intn(len(regs))]
		if !g.StoresRegister(i, x) {
			return true // replica cannot write registers it does not store
		}
		τ := randomVec(rng, s.Len(i))
		τ2 := s.Advance(i, τ, x)
		bumped := 0
		for p := range τ {
			if τ2[p] < τ[p] {
				return false
			}
			if τ2[p] > τ[p] {
				if τ2[p] != τ[p]+1 {
					return false
				}
				bumped++
			}
		}
		return bumped == len(g.UpdateRecipients(i, x))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(vals []uint64) bool {
		v := Vec(vals)
		data := Encode(v)
		if len(data) != EncodedSize(v) {
			return false
		}
		w, err := Decode(data)
		if err != nil {
			return false
		}
		if len(v) == 0 {
			return len(w) == 0
		}
		return w.Equal(v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) succeeded")
	}
	if _, err := Decode([]byte{0xff}); err == nil {
		t.Error("Decode of truncated varint succeeded")
	}
	// Length prefix claims more elements than bytes remain.
	if _, err := Decode([]byte{200, 1}); err == nil {
		t.Error("Decode with implausible length succeeded")
	}
	// Trailing garbage.
	data := append(Encode(Vec{1, 2}), 0x00)
	if _, err := Decode(data); err == nil {
		t.Error("Decode with trailing bytes succeeded")
	}
}

func TestVecHelpers(t *testing.T) {
	v := Vec{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage")
	}
	if v.Equal(Vec{1, 2}) || v.Equal(Vec{1, 2, 4}) {
		t.Error("Equal misreports")
	}
	if v.String() != "[1 2 3]" {
		t.Errorf("String = %q", v.String())
	}
}

func BenchmarkAdvance(b *testing.B) {
	g := sharegraph.Ring(8)
	s := newSpace(b, g)
	τ := s.Zero(0)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		τ = s.Advance(0, τ, "ring0")
	}
}

// benchCase is replica 0 of a space with a sender k and a pair of
// timestamps that predicate J admits: T is k's next update and τ already
// dominates everything else T carries.
type benchCase struct {
	name string
	s    *Space
	k    sharegraph.ReplicaID
	τ, T Vec
}

// wideSpace is cluster_randomk64's space: 1022 entries per replica, every
// pair that exchanges updates one run.
var wideSpace = sync.OnceValues(func() (*Space, error) {
	g := sharegraph.RandomK(64, 192, 3, 7)
	return NewSpace(g, sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{}))
})

// benchCases returns Ring(8) (16 entries) and RandomK(64,192,3,7) (1022
// entries), with counters drawn so that about 15 % exceed 127 and take a
// multi-byte varint.
func benchCases(b *testing.B) []benchCase {
	b.Helper()
	wide, err := wideSpace()
	if err != nil {
		b.Fatal(err)
	}
	counters := func(rng *rand.Rand, n int) Vec {
		v := make(Vec, n)
		for p := range v {
			v[p] = uint64(rng.Intn(128))
			if rng.Intn(100) < 15 {
				v[p] += 128 + uint64(rng.Intn(1<<14))
			}
		}
		return v
	}
	var out []benchCase
	for _, c := range []struct {
		name string
		s    *Space
	}{{"ring8", newSpace(b, sharegraph.Ring(8))}, {"randomk64", wide}} {
		rng := rand.New(rand.NewSource(1))
		k := sharegraph.ReplicaID(1)
		for ; k < sharegraph.ReplicaID(c.s.NumReplicas()); k++ {
			if _, ok := c.s.GatePos(0, k); ok {
				break
			}
		}
		τ, T := counters(rng, c.s.Len(0)), counters(rng, c.s.Len(k))
		c.s.MergeInPlace(0, τ, k, T)
		seq, _ := c.s.SeqPos(0, k)
		gate, _ := c.s.GatePos(0, k)
		T[seq] = τ[gate] + 1
		if !c.s.Deliverable(0, τ, k, T) {
			b.Fatalf("%s: the benchmark update is not deliverable", c.name)
		}
		out = append(out, benchCase{name: c.name, s: c.s, k: k, τ: τ, T: T})
	}
	return out
}

func BenchmarkMerge(b *testing.B) {
	for _, c := range benchCases(b) {
		b.Run(c.name, func(b *testing.B) {
			τ := c.τ.Clone()
			b.ReportAllocs()
			for b.Loop() {
				c.s.MergeInPlace(0, τ, c.k, c.T)
			}
		})
	}
}

func BenchmarkDeliverable(b *testing.B) {
	for _, c := range benchCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.s.Deliverable(0, c.τ, c.k, c.T)
			}
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, c := range benchCases(b) {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, EncodedSize(c.τ))
			b.ReportAllocs()
			b.SetBytes(int64(cap(buf)))
			for b.Loop() {
				buf = EncodeTo(buf[:0], c.τ)
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, c := range benchCases(b) {
		b.Run(c.name, func(b *testing.B) {
			data, dst := Encode(c.τ), make(Vec, len(c.τ))
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				if _, err := DecodeInto(dst, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
