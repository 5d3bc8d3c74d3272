package sharegraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Differential tests holding the loop engine (search.go) to the enumerating
// reference DFS (loops_ref_test.go) at every LoopOptions.MaxLen, plain and
// augmented. Equivalence is checked three ways: existence agreement on
// every (i, e) pair, witness validity (Definition 4 or 27, and no more than
// MaxLen vertices), and byte-identical tracked-edge sets for whole
// timestamp graphs built through either search.

// diffGraphs returns every generator family at sizes small enough for the
// reference DFS to stay fast.
func diffGraphs() map[string]*Graph {
	hm1, _ := HelaryMilani1()
	hm2, _ := HelaryMilani2()
	return map[string]*Graph{
		"fig3":     Fig3Example(),
		"fig5":     Fig5Example(),
		"hm1":      hm1,
		"hm2":      hm2,
		"ring4":    Ring(4),
		"ring6":    Ring(6),
		"ring8":    Ring(8),
		"line5":    Line(5),
		"star6":    Star(6),
		"tree6":    Tree([]int{0, 0, 1, 1, 2, 3}),
		"fullrep5": FullReplication(5, 3),
		"pairclq6": PairClique(6),
		"grid9":    Grid(3, 3),
		"randomk2": RandomK(8, 20, 2, 11),
		"randomk3": RandomK(8, 24, 3, 7),
		"randomk4": RandomK(9, 18, 4, 3),
	}
}

// sparsePlacement derives a sparse random placement from a seed: 6–9
// replicas, every register on 2 or 3 holders. Its loops are few and long,
// so a length bound often decides whether one counts.
func sparsePlacement(seed int64) *Graph {
	rng := newTestRand(seed)
	n := 6 + rng.Intn(4)
	stores := make([][]Register, n)
	for r := 0; r < n+rng.Intn(n); r++ {
		for _, h := range rng.Perm(n)[:2+rng.Intn(2)] {
			stores[h] = append(stores[h], Register(fmt.Sprintf("r%d", r)))
		}
	}
	for i := range stores {
		if len(stores[i]) == 0 {
			stores[i] = []Register{Register(fmt.Sprintf("priv%d", i))}
		}
	}
	g, err := New(stores)
	if err != nil {
		panic(err)
	}
	return g
}

// randomClients derives one to max clients, each accessing two distinct
// replicas of g.
func randomClients(g *Graph, rng *rand.Rand, max int) ClientAssignment {
	var assignment ClientAssignment
	for c := 0; c < 1+rng.Intn(max); c++ {
		p := rng.Intn(g.NumReplicas())
		q := rng.Intn(g.NumReplicas())
		if p == q {
			q = (q + 1) % g.NumReplicas()
		}
		assignment = append(assignment, []ReplicaID{ReplicaID(p), ReplicaID(q)})
	}
	return assignment
}

// maxLens returns every bound worth sweeping on an n-replica graph: 0
// (exact), and 2 (below the smallest loop) through n+1 (above the largest).
func maxLens(n int) []LoopOptions {
	out := []LoopOptions{{}}
	for l := 2; l <= n+1; l++ {
		out = append(out, LoopOptions{MaxLen: l})
	}
	return out
}

// checkEngineAgreement asserts, for every (i, e) pair of g (of Ĝ when a is
// not nil), that the engine and the reference DFS agree on existence, and
// that every witness the engine returns satisfies Definition 4 (27), has
// at most opts.MaxLen vertices and witnesses the requested edge.
func checkEngineAgreement(t *testing.T, name string, g *Graph, a *AugmentedGraph, opts LoopOptions) {
	t.Helper()
	s, valid := NewLoopSearcher(g), g.IsIEJKLoop
	if a != nil {
		s, valid = NewAugmentedLoopSearcher(a), a.IsAugmentedIEJKLoop
	}
	for i := 0; i < g.NumReplicas(); i++ {
		for _, e := range g.Edges() {
			if e.From == ReplicaID(i) || e.To == ReplicaID(i) {
				continue
			}
			_, want := refFindLoop(g, a, ReplicaID(i), e, opts)
			lp, got := s.Find(ReplicaID(i), e, opts)
			if want != got {
				t.Fatalf("%s: replica %d edge %v opts %+v: reference=%v engine=%v\n%s",
					name, i, e, opts, want, got, g)
			}
			if !got {
				continue
			}
			if !valid(lp) {
				t.Fatalf("%s: replica %d edge %v: engine witness %v fails validation\n%s",
					name, i, e, lp, g)
			}
			if opts.MaxLen > 0 && lp.Len() > opts.MaxLen {
				t.Fatalf("%s: replica %d edge %v: witness %v has %d vertices, MaxLen %d",
					name, i, e, lp, lp.Len(), opts.MaxLen)
			}
			if lp.I != ReplicaID(i) || lp.Edge() != e {
				t.Fatalf("%s: replica %d edge %v: witness %v has I=%d Edge=%v",
					name, i, e, lp, lp.I, lp.Edge())
			}
		}
	}
}

// TestExactEngineMatchesLegacyOnGenerators runs the differential sweep
// over every generator family at every MaxLen.
func TestExactEngineMatchesLegacyOnGenerators(t *testing.T) {
	for name, g := range diffGraphs() {
		for _, opts := range maxLens(g.NumReplicas()) {
			checkEngineAgreement(t, name, g, nil, opts)
		}
	}
}

// TestExactEngineMatchesLegacyRandomPlacements runs the differential sweep
// over randomized register assignments at every MaxLen.
func TestExactEngineMatchesLegacyRandomPlacements(t *testing.T) {
	prop := func(seed int64) bool {
		g := placementFromSeed(seed, 7, 10)
		for _, opts := range maxLens(g.NumReplicas()) {
			checkEngineAgreement(t, "random", g, nil, opts)
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestExactEngineMatchesLegacySparse runs the differential sweep over
// sparse placements at every MaxLen, the family on which a depth-blind
// dominance rule goes wrong. Besides seeds 0–119 it runs the eight seeds
// below 20,000 on which such a rule disagrees with the reference.
func TestExactEngineMatchesLegacySparse(t *testing.T) {
	seeds := []int64{6060, 6615, 6739, 13967, 16236, 17056, 17516, 19890}
	for seed := int64(0); seed < 120; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		g := sparsePlacement(seed)
		for _, opts := range maxLens(g.NumReplicas()) {
			checkEngineAgreement(t, fmt.Sprintf("sparse seed %d", seed), g, nil, opts)
		}
	}
}

// TestBoundedSearchKeepsShorterPath pins a case where dominance must
// compare depths as well as masks. Under MaxLen 5 the only
// (5, e(1→0))-loop is loop[5 6 3 0 1 5]. Its l-path prefix 5→6→3 reaches
// replica 3 at depth 2; the prefix 5→4→2→3 reaches it one layer later with
// an interior that lacks r0, a ⊆-smaller mask. A rule that evicts on masks
// alone drops the depth-2 state before it is expanded, and the 4-vertex
// l-path left over no longer fits the bound.
func TestBoundedSearchKeepsShorterPath(t *testing.T) {
	g, err := New([][]Register{
		{"r1", "r8", "r9"},
		{"r0", "r1", "r4", "r5", "r6", "r8"},
		{"r2", "r3", "r5"},
		{"r3", "r4", "r8", "r9"},
		{"r10", "r2", "r7"},
		{"r6", "r7"},
		{"r0", "r10", "r2", "r4", "r5", "r7"},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, opts := Edge{From: 1, To: 0}, LoopOptions{MaxLen: 5}
	if _, ok := refFindLoop(g, nil, 5, e, opts); !ok {
		t.Fatal("reference finds no (5, e(1->0))-loop within 5 vertices")
	}
	lp, ok := NewLoopSearcher(g).Find(5, e, opts)
	if !ok {
		t.Fatal("engine finds no (5, e(1->0))-loop within 5 vertices")
	}
	if got, want := lp.String(), "loop[5 6 3 0 1 5]"; got != want || !g.IsIEJKLoop(lp) {
		t.Fatalf("witness %s (valid %v), want %s", got, g.IsIEJKLoop(lp), want)
	}
}

// TestBuildTSGraphByteIdenticalToLegacy: building through the engine must
// leave every tracked-edge set byte-identical to a build through the
// reference DFS at every MaxLen — the timestamp layout (and hence the wire
// format) may not shift by a single entry.
func TestBuildTSGraphByteIdenticalToLegacy(t *testing.T) {
	check := func(name string, g *Graph) {
		t.Helper()
		for _, opts := range maxLens(g.NumReplicas()) {
			for i := 0; i < g.NumReplicas(); i++ {
				engine := BuildTSGraph(g, ReplicaID(i), opts)
				ref := buildTSGraphWith(g, ReplicaID(i), opts, refFinder(g, nil))
				if !reflect.DeepEqual(engine.Edges(), ref.Edges()) {
					t.Fatalf("%s replica %d opts %+v: engine edges %v != reference edges %v",
						name, i, opts, engine.Edges(), ref.Edges())
				}
			}
		}
	}
	for name, g := range diffGraphs() {
		check(name, g)
	}
	for seed := int64(0); seed < 40; seed++ {
		check("random", placementFromSeed(seed, 7, 10))
	}
}

// TestAugmentedEngineMatchesLegacy runs the augmented differential sweep:
// random placements with random client assignments, at every MaxLen,
// existence agreement on every (i, e) pair, witnesses validated by
// IsAugmentedIEJKLoop, and whole augmented timestamp graphs byte-identical
// through either search.
func TestAugmentedEngineMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		g := placementFromSeed(seed, 6, 9)
		assignment := randomClients(g, newTestRand(seed^0x5eed), 3)
		a, err := NewAugmented(g, assignment)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("seed %d clients %v", seed, assignment)
		for _, opts := range maxLens(g.NumReplicas()) {
			checkEngineAgreement(t, name, g, a, opts)
			for i := 0; i < g.NumReplicas(); i++ {
				engine := a.BuildAugmentedTSGraph(ReplicaID(i), opts)
				ref := buildTSGraphWith(g, ReplicaID(i), opts, refFinder(g, a))
				if !reflect.DeepEqual(engine.Edges(), ref.Edges()) {
					t.Fatalf("%s replica %d opts %+v: engine edges %v != reference edges %v",
						name, i, opts, engine.Edges(), ref.Edges())
				}
			}
		}
	}
}

// TestExactEngineAgainstBruteForce closes the loop a third way: the engine
// against the exhaustive split-enumeration oracle, independent of the
// reference DFS's own search order.
func TestExactEngineAgainstBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		g := placementFromSeed(seed, 6, 8)
		s := NewLoopSearcher(g)
		for i := 0; i < g.NumReplicas(); i++ {
			for _, e := range g.Edges() {
				if e.From == ReplicaID(i) || e.To == ReplicaID(i) {
					continue
				}
				if s.Has(ReplicaID(i), e, LoopOptions{}) != bruteForceHasLoop(g, ReplicaID(i), e) {
					t.Logf("seed %d replica %d edge %v\n%s", seed, i, e, g)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// sameTSGraph reports the first way got differs from the reference
// build want: its edge list, or the Index of any of its edges.
func sameTSGraph(got, want *TSGraph) string {
	if got.Owner != want.Owner {
		return fmt.Sprintf("owner %d != %d", got.Owner, want.Owner)
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		return fmt.Sprintf("edges %v != reference edges %v", got.Edges(), want.Edges())
	}
	for _, e := range want.Edges() {
		gi, gok := got.Index(e)
		wi, wok := want.Index(e)
		if gi != wi || gok != wok {
			return fmt.Sprintf("Index(%v) = (%d,%v), reference (%d,%v)", e, gi, gok, wi, wok)
		}
	}
	return ""
}

// TestBuildAllByteIdenticalToLegacy holds the whole-system builders that
// prcc.New and the client-server runtime use to the per-owner reference
// build through the enumerating DFS, at every MaxLen: BuildAllTSGraphs
// on every generator family and 40 random placements,
// BuildAllAugmentedTSGraphs on 60 augmented seeds.
func TestBuildAllByteIdenticalToLegacy(t *testing.T) {
	check := func(name string, g *Graph, a *AugmentedGraph) {
		t.Helper()
		for _, opts := range maxLens(g.NumReplicas()) {
			var all []*TSGraph
			if a != nil {
				all = a.BuildAllAugmentedTSGraphs(opts)
			} else {
				all = BuildAllTSGraphs(g, opts)
			}
			if len(all) != g.NumReplicas() {
				t.Fatalf("%s opts %+v: %d graphs for %d replicas", name, opts, len(all), g.NumReplicas())
			}
			for i, got := range all {
				ref := buildTSGraphWith(g, ReplicaID(i), opts, refFinder(g, a))
				if diff := sameTSGraph(got, ref); diff != "" {
					t.Fatalf("%s replica %d opts %+v: %s", name, i, opts, diff)
				}
			}
		}
	}
	for name, g := range diffGraphs() {
		check(name, g, nil)
	}
	for seed := int64(0); seed < 40; seed++ {
		check(fmt.Sprintf("random seed %d", seed), placementFromSeed(seed, 7, 10), nil)
	}
	for seed := int64(0); seed < 60; seed++ {
		g := placementFromSeed(seed, 6, 9)
		assignment := randomClients(g, newTestRand(seed^0x5eed), 3)
		a, err := NewAugmented(g, assignment)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("augmented seed %d clients %v", seed, assignment), g, a)
	}
}
