package sharegraph

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// TestFig5TimestampGraph reproduces the Definition 5 worked example:
// G_1 (our G_0) contains e43 and e32 but not e34 or e23, plus all edges
// incident at replica 1 in both directions.
func TestFig5TimestampGraph(t *testing.T) {
	g := Fig5Example()
	ts := BuildTSGraph(g, 0, LoopOptions{})

	// Incident edges: replica 0 is adjacent to 1 and 3 (shares y with 1,
	// {y,w} with 3).
	for _, e := range []Edge{{0, 1}, {1, 0}, {0, 3}, {3, 0}} {
		if !ts.Has(e) {
			t.Errorf("G_0 missing incident edge %v", e)
		}
	}
	// Paper: e43 ∈ G_1, e34 ∉ G_1 (zero-based: e(3→2) in, e(2→3) out).
	if !ts.Has(Edge{3, 2}) {
		t.Error("G_0 missing e43 (zero-based e(3->2))")
	}
	if ts.Has(Edge{2, 3}) {
		t.Error("G_0 contains e34 (zero-based e(2->3)); timestamp edges need not be bidirectional")
	}
	// Paper: e32 ∈ G_1 via the same loop; e23 ∉ G_1.
	if !ts.Has(Edge{2, 1}) {
		t.Error("G_0 missing e32 (zero-based e(2->1))")
	}
	if ts.Has(Edge{1, 2}) {
		t.Error("G_0 contains e23 (zero-based e(1->2))")
	}
	// Witness loops must be retrievable and valid for non-incident edges.
	for _, e := range ts.NonIncidentEdges() {
		lp, ok := ts.WitnessLoop(e)
		if !ok {
			t.Errorf("no witness loop recorded for %v", e)
			continue
		}
		if !g.IsIEJKLoop(lp) || lp.Edge() != e {
			t.Errorf("invalid witness loop %v for %v", lp, e)
		}
	}
}

// TestTreeTimestampGraphsIncidentOnly: trees have no loops at all, so every
// timestamp graph holds exactly the incident edges — 2·N_i entries, the
// quantity the Section 4 tree lower bound says is optimal.
func TestTreeTimestampGraphsIncidentOnly(t *testing.T) {
	for _, g := range []*Graph{Line(6), Star(6), Tree([]int{0, 0, 0, 1, 1, 2, 4})} {
		for i := 0; i < g.NumReplicas(); i++ {
			ts := BuildTSGraph(g, ReplicaID(i), LoopOptions{})
			if got, want := ts.Len(), 2*g.Degree(ReplicaID(i)); got != want {
				t.Errorf("tree replica %d: |E_i| = %d, want 2·N_i = %d", i, got, want)
			}
			if len(ts.NonIncidentEdges()) != 0 {
				t.Errorf("tree replica %d tracks non-incident edges %v", i, ts.NonIncidentEdges())
			}
		}
	}
}

// TestRingTimestampGraphsFullCycle: on an n-cycle every replica must track
// every directed cycle edge — 2n entries, matching the Section 4 cycle
// lower bound of 2n·log m bits.
func TestRingTimestampGraphsFullCycle(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6, 7} {
		g := Ring(n)
		for i := 0; i < n; i++ {
			ts := BuildTSGraph(g, ReplicaID(i), LoopOptions{})
			if got := ts.Len(); got != 2*n {
				t.Errorf("ring(%d) replica %d: |E_i| = %d, want %d", n, i, got, 2*n)
			}
		}
	}
}

func TestTSGraphIndexStable(t *testing.T) {
	g := Fig5Example()
	ts := BuildTSGraph(g, 0, LoopOptions{})
	for pos, e := range ts.Edges() {
		idx, ok := ts.Index(e)
		if !ok || idx != pos {
			t.Errorf("Index(%v) = (%d,%v), want (%d,true)", e, idx, ok, pos)
		}
	}
	if _, ok := ts.Index(Edge{9, 9}); ok {
		t.Error("Index of untracked edge reported ok")
	}
}

func TestTSGraphIntersection(t *testing.T) {
	g := Fig5Example()
	all := BuildAllTSGraphs(g, LoopOptions{})
	for i, ti := range all {
		for k, tk := range all {
			inter := ti.Intersection(tk)
			seen := make(map[Edge]bool)
			for _, pair := range inter {
				e := ti.Edges()[pair[0]]
				if tk.Edges()[pair[1]] != e {
					t.Fatalf("intersection misaligned between G_%d and G_%d", i, k)
				}
				seen[e] = true
			}
			// Every commonly tracked edge must appear exactly once.
			for _, e := range ti.Edges() {
				if tk.Has(e) && !seen[e] {
					t.Errorf("edge %v in E_%d ∩ E_%d missing from Intersection", e, i, k)
				}
			}
		}
	}
}

// TestTSGraphContainsIncidentProperty: Definition 5 guarantees E_i always
// contains every incident directed edge, on any share graph.
func TestTSGraphContainsIncidentProperty(t *testing.T) {
	prop := func(seed int64) bool {
		g := placementFromSeed(seed, 7, 10)
		for i := 0; i < g.NumReplicas(); i++ {
			ts := BuildTSGraph(g, ReplicaID(i), LoopOptions{})
			for _, j := range g.Neighbors(ReplicaID(i)) {
				if !ts.Has(Edge{ReplicaID(i), j}) || !ts.Has(Edge{j, ReplicaID(i)}) {
					return false
				}
			}
			// And every tracked edge is a share-graph edge.
			for _, e := range ts.Edges() {
				if !g.HasEdge(e) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestFullReplicationTSGraph: with identical stores everywhere the share
// graph is a clique and loops exist generously; |E_i| is bounded by the
// total number of directed edges, R(R-1).
func TestFullReplicationTSGraph(t *testing.T) {
	g := FullReplication(5, 3)
	for i := 0; i < 5; i++ {
		ts := BuildTSGraph(g, ReplicaID(i), LoopOptions{})
		if ts.Len() > 5*4 {
			t.Errorf("replica %d: |E_i| = %d exceeds R(R-1) = 20", i, ts.Len())
		}
		if ts.Len() < 2*4 {
			t.Errorf("replica %d: |E_i| = %d below incident count 8", i, ts.Len())
		}
	}
}

// TestWitnessLoopOnDemand: witnesses are recomputed when asked for.
// Augmented builds give loops that pass IsAugmentedIEJKLoop, truncated
// ones loops within MaxLen (TestExactDenseRandomKBuild covers plain), incident and untracked edges and
// graphs from NewTSGraphFromEdges give none, and concurrent callers on
// one TSGraph get the same answers (run it under -race).
func TestWitnessLoopOnDemand(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g := placementFromSeed(seed, 7, 10)
		a, err := NewAugmented(g, randomClients(g, newTestRand(seed^0x5eed), 3))
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []LoopOptions{{}, {MaxLen: 4}} {
			for _, tg := range a.BuildAllAugmentedTSGraphs(opts) {
				for _, e := range tg.NonIncidentEdges() {
					lp, ok := tg.WitnessLoop(e)
					if !ok || !a.IsAugmentedIEJKLoop(lp) || lp.I != tg.Owner || lp.Edge() != e {
						t.Fatalf("seed %d opts %+v replica %d edge %v: witness (%v, %v) invalid",
							seed, opts, tg.Owner, e, lp, ok)
					}
					if opts.MaxLen > 0 && lp.Len() > opts.MaxLen {
						t.Fatalf("seed %d replica %d edge %v: witness %v longer than %d",
							seed, tg.Owner, e, lp, opts.MaxLen)
					}
				}
			}
		}
	}

	ring := Ring(6)
	ts := BuildTSGraph(ring, 0, LoopOptions{MaxLen: 5})
	for _, e := range []Edge{{0, 1}, {1, 0}, {5, 0}} {
		if lp, ok := ts.WitnessLoop(e); ok || lp.L != nil || lp.R != nil {
			t.Errorf("incident edge %v: witness (%v, %v), want none", e, lp, ok)
		}
	}
	if _, ok := ts.WitnessLoop(Edge{3, 4}); ok || ts.Has(Edge{3, 4}) {
		t.Error("MaxLen 5 tracks or witnesses e(3->4), which needs the 6-vertex ring loop")
	}
	if _, ok := ts.WitnessLoop(Edge{2, 4}); ok {
		t.Error("witness for a non-edge")
	}
	explicit := NewTSGraphFromEdges(0, BuildTSGraph(ring, 0, LoopOptions{}).Edges())
	for _, e := range explicit.NonIncidentEdges() {
		if lp, ok := explicit.WitnessLoop(e); ok || lp.L != nil || lp.R != nil {
			t.Errorf("NewTSGraphFromEdges edge %v: witness (%v, %v), want none", e, lp, ok)
		}
	}

	exact := BuildTSGraph(Fig5Example(), 0, LoopOptions{})
	want := make(map[Edge]Loop)
	for _, e := range exact.NonIncidentEdges() {
		want[e], _ = exact.WitnessLoop(e)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range exact.NonIncidentEdges() {
				if lp, ok := exact.WitnessLoop(e); !ok || !reflect.DeepEqual(lp, want[e]) {
					t.Errorf("concurrent WitnessLoop(%v) = (%v, %v), want %v", e, lp, ok, want[e])
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkTSGraphBuildFig5(b *testing.B) {
	g := Fig5Example()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		BuildTSGraph(g, 0, LoopOptions{})
	}
}

func BenchmarkTSGraphBuildRing10(b *testing.B) {
	g := Ring(10)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		BuildTSGraph(g, 0, LoopOptions{})
	}
}

func BenchmarkShareGraphBuildRandom(b *testing.B) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		RandomK(12, 30, 3, int64(n))
	}
}

// BenchmarkBuildAllTSGraphs measures whole-system builds, the set-up cost
// every instance pays: the exact dense RandomK(64, 192, 3, 7) build
// (65 408 entries), Ring(64), and RandomK(32, 96, 3, 7) truncated at
// MaxLen 4. Each reports the total entry count, so a speed-up that
// changes the answer shows.
func BenchmarkBuildAllTSGraphs(b *testing.B) {
	cases := []struct {
		name string
		g    *Graph
		opts LoopOptions
	}{
		{"randomk64_exact", RandomK(64, 192, 3, 7), LoopOptions{}},
		{"ring64", Ring(64), LoopOptions{}},
		{"randomk32_trunc4", RandomK(32, 96, 3, 7), LoopOptions{MaxLen: 4}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			entries := 0
			for n := 0; n < b.N; n++ {
				entries = 0
				for _, tg := range BuildAllTSGraphs(c.g, c.opts) {
					entries += tg.Len()
				}
			}
			b.ReportMetric(float64(entries), "entries")
		})
	}
}
