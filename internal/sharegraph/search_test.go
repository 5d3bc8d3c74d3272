package sharegraph

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestMaskPrimitives(t *testing.T) {
	a := []uint64{0b1010, 0}
	b := []uint64{0b1110, 1}
	if !maskSubset(a, b) {
		t.Error("a ⊆ b expected")
	}
	if maskSubset(b, a) {
		t.Error("b ⊄ a expected")
	}
	if maskDiffNonEmpty(a, b) {
		t.Error("a − b should be empty")
	}
	if !maskDiffNonEmpty(b, a) {
		t.Error("b − a should be non-empty")
	}
	if !maskDiffNonEmpty(a, nil) {
		t.Error("a − ∅ should be non-empty")
	}
	if maskDiffNonEmpty(nil, a) {
		t.Error("∅ − a should be empty (nil label)")
	}
	if maskDiffNonEmpty([]uint64{0, 0}, nil) {
		t.Error("zero mask − ∅ should be empty")
	}
	m := make([]uint64, 2)
	bitSet(m, 0)
	bitSet(m, 64)
	bitSet(m, 127)
	for _, i := range []int{0, 64, 127} {
		if !bitGet(m, i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if bitGet(m, 63) || bitGet(m, 1) {
		t.Error("unexpected bits set")
	}
	maskZero(m)
	if bitGet(m, 0) || bitGet(m, 64) {
		t.Error("maskZero left bits behind")
	}
}

// TestSearchIndexSharedRegistersOnly: the canonical bitmask universe holds
// exactly the registers appearing in shared edge sets; private registers
// get no bit (they cannot affect any side condition).
func TestSearchIndexSharedRegistersOnly(t *testing.T) {
	g := Ring(5) // ring<i> shared, priv<i> private
	idx := g.searchIndex()
	if got, want := len(idx.regBit), 5; got != want {
		t.Fatalf("regBit has %d registers, want %d (ring registers only)", got, want)
	}
	for r := range idx.regBit {
		if len(g.holders[r]) < 2 {
			t.Errorf("register %q has %d holders but got a bit", r, len(g.holders[r]))
		}
	}
	if idx.words != 1 {
		t.Errorf("5 shared registers should fit one word, got %d", idx.words)
	}
}

// TestLoopAccessorsDegenerateShapes pins Vertices/Edge/Len/String on the
// smallest legal loop shapes: s = 1 (L is just k) and t = 1 (R is just j).
func TestLoopAccessorsDegenerateShapes(t *testing.T) {
	// s = 1, t = 1: the 3-vertex loop i → k → j → i.
	min := Loop{I: 2, L: []ReplicaID{7}, R: []ReplicaID{4}}
	if got, want := min.Len(), 3; got != want {
		t.Errorf("Len() = %d, want %d", got, want)
	}
	if got := min.Edge(); got != (Edge{From: 4, To: 7}) {
		t.Errorf("Edge() = %v, want e(4->7)", got)
	}
	if got, want := min.Vertices(), []ReplicaID{2, 7, 4, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("Vertices() = %v, want %v", got, want)
	}
	if got, want := min.String(), "loop[2 7 4 2]"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	// t = 1 with a longer l-path: the r-path is only j.
	t1 := Loop{I: 0, L: []ReplicaID{1, 2, 3}, R: []ReplicaID{5}}
	if got := t1.Edge(); got != (Edge{From: 5, To: 3}) {
		t.Errorf("t=1 Edge() = %v, want e(5->3)", got)
	}
	if got, want := t1.Vertices(), []ReplicaID{0, 1, 2, 3, 5, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("t=1 Vertices() = %v, want %v", got, want)
	}
	// s = 1 with a longer r-path: the l-path is only k.
	s1 := Loop{I: 0, L: []ReplicaID{9}, R: []ReplicaID{4, 5, 6}}
	if got := s1.Edge(); got != (Edge{From: 4, To: 9}) {
		t.Errorf("s=1 Edge() = %v, want e(4->9)", got)
	}
	if got, want := s1.Len(), 5; got != want {
		t.Errorf("s=1 Len() = %d, want %d", got, want)
	}
	if got, want := s1.String(), "loop[0 9 4 5 6 0]"; got != want {
		t.Errorf("s=1 String() = %q, want %q", got, want)
	}
}

// TestEngineFindsDegenerateShapes: the engine must produce valid witnesses
// for the smallest shapes too — s = 1 arrivals straight from i, and t = 1
// closes via the direct j → i hop.
func TestEngineFindsDegenerateShapes(t *testing.T) {
	// Triangle where each pair shares its own register: every non-incident
	// directed edge of every replica is witnessed by the 3-vertex loop
	// with s = t = 1.
	g := PairClique(3)
	s := NewLoopSearcher(g)
	lp, ok := s.Find(0, Edge{From: 1, To: 2}, LoopOptions{})
	if !ok {
		t.Fatal("no (0, e12)-loop on the pair-clique triangle")
	}
	if len(lp.L) != 1 || len(lp.R) != 1 {
		t.Fatalf("triangle witness should have s = t = 1, got %v", lp)
	}
	if !g.IsIEJKLoop(lp) {
		t.Fatalf("witness %v fails IsIEJKLoop", lp)
	}
}

// TestMaxLenPreservedThroughEngine: the Appendix D truncation must behave
// identically in the engine and the reference DFS: same existence verdicts
// at every bound, and monotonically growing tracked sets as the bound
// rises to R, where the search becomes exact.
func TestMaxLenPreservedThroughEngine(t *testing.T) {
	g := Ring(6)
	e := Edge{From: 3, To: 4} // needs the full 6-vertex ring loop
	s := NewLoopSearcher(g)
	for maxLen := 0; maxLen <= 7; maxLen++ {
		opts := LoopOptions{MaxLen: maxLen}
		_, want := refFindLoop(g, nil, 0, e, opts)
		if got := s.Has(0, e, opts); got != want {
			t.Errorf("MaxLen %d: engine=%v reference=%v", maxLen, got, want)
		}
	}
	if s.Has(0, e, LoopOptions{MaxLen: 4}) {
		t.Error("6-vertex ring loop found with MaxLen=4")
	}
	if !s.Has(0, e, LoopOptions{MaxLen: 6}) {
		t.Error("ring loop not found with MaxLen=6")
	}
	// Whole graphs: truncated builds through BuildTSGraph must equal
	// reference builds at every bound, and the tracked sets must grow
	// monotonically in the bound.
	for seed := int64(0); seed < 20; seed++ {
		rg := placementFromSeed(seed, 7, 10)
		var prevLen int
		for maxLen := 3; maxLen <= rg.NumReplicas(); maxLen++ {
			opts := LoopOptions{MaxLen: maxLen}
			total := 0
			for i := 0; i < rg.NumReplicas(); i++ {
				engine := BuildTSGraph(rg, ReplicaID(i), opts)
				ref := buildTSGraphWith(rg, ReplicaID(i), opts, refFinder(rg, nil))
				if !reflect.DeepEqual(engine.Edges(), ref.Edges()) {
					t.Fatalf("seed %d replica %d MaxLen %d: engine %v != reference %v",
						seed, i, maxLen, engine.Edges(), ref.Edges())
				}
				total += engine.Len()
			}
			if total < prevLen {
				t.Fatalf("seed %d: tracked entries shrank raising MaxLen to %d", seed, maxLen)
			}
			prevLen = total
		}
	}
}

// TestExactDenseRandomKBuild is the acceptance check for the engine: the
// untruncated RandomK(32, 96, 3, 7) build — unreachable for the reference
// DFS (minutes+) — must complete quickly, every non-incident tracked edge
// must carry a witness that passes IsIEJKLoop, and the exact tracked sets
// must contain the Appendix D truncated ones (monotonicity: exact search
// can only discover more loops than a bounded one), whose witnesses fit
// the bound.
func TestExactDenseRandomKBuild(t *testing.T) {
	g := RandomK(32, 96, 3, 7)
	start := time.Now()
	graphs := BuildAllTSGraphs(g, LoopOptions{})
	elapsed := time.Since(start)
	t.Logf("untruncated RandomK(32,96,3,7) BuildAllTSGraphs: %v", elapsed)
	if elapsed > 10*time.Second {
		t.Fatalf("untruncated dense build took %v, want well under 10s", elapsed)
	}
	entries := 0
	for _, tg := range graphs {
		entries += tg.Len()
		for _, e := range tg.NonIncidentEdges() {
			lp, ok := tg.WitnessLoop(e)
			if !ok {
				t.Fatalf("replica %d tracks %v without a witness loop", tg.Owner, e)
			}
			if !g.IsIEJKLoop(lp) {
				t.Fatalf("replica %d edge %v: witness %v fails IsIEJKLoop", tg.Owner, e, lp)
			}
			if lp.I != tg.Owner || lp.Edge() != e {
				t.Fatalf("replica %d edge %v: witness %v mismatched", tg.Owner, e, lp)
			}
		}
	}
	if entries == 0 {
		t.Fatal("dense build produced no tracked edges")
	}
	truncated := BuildAllTSGraphs(g, LoopOptions{MaxLen: 5})
	for i, tg := range truncated {
		for _, e := range tg.Edges() {
			if !graphs[i].Has(e) {
				t.Fatalf("replica %d: truncated tracks %v but exact does not", i, e)
			}
		}
		for _, e := range tg.NonIncidentEdges() {
			if lp, _ := tg.WitnessLoop(e); !g.IsIEJKLoop(lp) || lp.Len() > 5 {
				t.Fatalf("replica %d edge %v: truncated witness %v invalid or longer than 5", i, e, lp)
			}
		}
	}
}

// BenchmarkExactLoopSearch measures the engine on a sparse ring, a dense
// pair clique, and a whole timestamp graph of the dense random topology.
// ring8_e45 and pairclique8_e45 repeat one (j, k), so after the first
// iteration they measure the searcher with its per-j and per-edge
// pre-filters warm: the l-path search alone.
func BenchmarkExactLoopSearch(b *testing.B) {
	b.Run("ring8_e45", func(b *testing.B) {
		g := Ring(8)
		s := NewLoopSearcher(g)
		e := Edge{From: 4, To: 5}
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if !s.Has(0, e, LoopOptions{}) {
				b.Fatal("expected loop")
			}
		}
	})
	b.Run("pairclique8_e45", func(b *testing.B) {
		g := PairClique(8)
		s := NewLoopSearcher(g)
		e := Edge{From: 4, To: 5}
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			s.Has(0, e, LoopOptions{})
		}
	})
	b.Run("randomk32_replica0_exact", func(b *testing.B) {
		g := RandomK(32, 96, 3, 7)
		b.ReportAllocs()
		entries := 0
		for n := 0; n < b.N; n++ {
			entries = BuildTSGraph(g, 0, LoopOptions{}).Len()
		}
		b.ReportMetric(float64(entries), "entries")
	})
}

// BenchmarkIsIEJKLoopValidate measures the allocation-slimmed validator on
// a real witness (it must stay cheap: the differential and fuzz harnesses
// call it for every returned loop).
func BenchmarkIsIEJKLoopValidate(b *testing.B) {
	g := Ring(8)
	lp, ok := NewLoopSearcher(g).Find(0, Edge{From: 4, To: 5}, LoopOptions{})
	if !ok {
		b.Fatal("expected loop")
	}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if !g.IsIEJKLoop(lp) {
			b.Fatal("witness must validate")
		}
	}
}

// loopQuery is one (i, e_jk, MaxLen) question to a searcher.
type loopQuery struct {
	i    ReplicaID
	e    Edge
	opts LoopOptions
}

// TestSearcherAnswersAnyQueryOrder holds one searcher's per-j and per-edge
// caches to the differentials: the same searcher answers every query of a
// graph in three orders — grouped by j with k changing between queries,
// grouped by (j, k) with MaxLen changing between queries, and shuffled —
// and each answer must equal a fresh searcher's (witness included) and
// the reference DFS's verdict. Plain and augmented.
func TestSearcherAnswersAnyQueryOrder(t *testing.T) {
	run := func(name string, g *Graph, a *AugmentedGraph, rng *rand.Rand) {
		t.Helper()
		fresh := func() *LoopSearcher {
			if a != nil {
				return NewAugmentedLoopSearcher(a)
			}
			return NewLoopSearcher(g)
		}
		n := g.NumReplicas()
		edges, lens := g.Edges(), maxLens(n)
		// Same j, k changing: for each j, each owner and bound sweep
		// every k out of j before moving on.
		var byJ, byJK []loopQuery
		for _, opts := range lens {
			for i := range n {
				for _, e := range edges {
					byJ = append(byJ, loopQuery{ReplicaID(i), e, opts})
				}
			}
		}
		slices.SortStableFunc(byJ, func(p, q loopQuery) int { return cmp.Compare(p.e.From, q.e.From) })
		// Same (j, k), MaxLen changing between consecutive queries.
		for _, e := range edges {
			for i := range n {
				for _, opts := range lens {
					byJK = append(byJK, loopQuery{ReplicaID(i), e, opts})
				}
			}
		}
		shuffled := slices.Clone(byJK)
		rng.Shuffle(len(shuffled), func(x, y int) { shuffled[x], shuffled[y] = shuffled[y], shuffled[x] })
		for order, qs := range map[string][]loopQuery{"by j": byJ, "by (j,k)": byJK, "shuffled": shuffled} {
			s := fresh()
			for _, q := range qs {
				lp, ok := s.Find(q.i, q.e, q.opts)
				wantLp, wantOk := fresh().Find(q.i, q.e, q.opts)
				if ok != wantOk || !reflect.DeepEqual(lp, wantLp) {
					t.Fatalf("%s %s: query %+v: shared searcher (%v, %v), fresh (%v, %v)",
						name, order, q, lp, ok, wantLp, wantOk)
				}
				if _, refOk := refFindLoop(g, a, q.i, q.e, q.opts); ok != refOk {
					t.Fatalf("%s %s: query %+v: engine %v, reference %v", name, order, q, ok, refOk)
				}
			}
		}
	}
	rng := newTestRand(39)
	for _, name := range []string{"fig5", "ring6", "pairclq6", "grid9", "randomk3"} {
		run(name, diffGraphs()[name], nil, rng)
	}
	for seed := int64(0); seed < 10; seed++ {
		run(fmt.Sprintf("sparse seed %d", seed), sparsePlacement(seed), nil, rng)
		g := placementFromSeed(seed, 6, 9)
		a, err := NewAugmented(g, randomClients(g, newTestRand(seed^0x5eed), 3))
		if err != nil {
			t.Fatal(err)
		}
		run(fmt.Sprintf("augmented seed %d", seed), g, a, rng)
	}
}
