package sharegraph

import "testing"

// bridgeGraph builds a share graph where replicas 1 and 2 share nothing,
// plus a client that accesses both — the canonical case where the
// augmented share graph (Definition 16) gains an edge absent from E.
// Topology: 0–1 share a, 2–3 share b, 0–3 share c (so a real loop can
// close through the client edge 1–2).
func bridgeGraph(t *testing.T) (*Graph, *AugmentedGraph) {
	t.Helper()
	g, err := New([][]Register{
		{"a", "c"},
		{"a", "p1"},
		{"b", "p2"},
		{"b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAugmented(g, ClientAssignment{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

func TestAugmentedEdges(t *testing.T) {
	g, a := bridgeGraph(t)
	if g.HasEdge(Edge{1, 2}) {
		t.Fatal("1 and 2 should share no registers")
	}
	if !a.HasEdge(Edge{1, 2}) || !a.HasEdge(Edge{2, 1}) {
		t.Error("client edge 1–2 missing from Ê")
	}
	if !a.ClientPair(Edge{1, 2}) {
		t.Error("ClientPair(1,2) = false")
	}
	if a.ClientPair(Edge{0, 1}) {
		t.Error("ClientPair(0,1) = true; no client spans 0 and 1")
	}
	// Ĝ adjacency includes both real and client neighbours.
	n1 := a.Neighbors(1)
	if len(n1) != 2 || n1[0] != 0 || n1[1] != 2 {
		t.Errorf("Ĝ-neighbours of 1 = %v, want [0 2]", n1)
	}
}

func TestNewAugmentedValidation(t *testing.T) {
	g := Fig3Example()
	if _, err := NewAugmented(g, ClientAssignment{{}}); err == nil {
		t.Error("empty client replica set accepted")
	}
	if _, err := NewAugmented(g, ClientAssignment{{0, 9}}); err == nil {
		t.Error("out-of-range replica accepted")
	}
	if _, err := NewAugmented(g, ClientAssignment{{0, 0}}); err == nil {
		t.Error("duplicate replica accepted")
	}
}

// TestAugmentedLoopThroughClientEdge: a dependency chain can cross the
// client bridge, so replica 0 must track e_23 (zero-based e(2→3)) even
// though the only loop through 0 uses the client edge 1–2 — exactly the
// Appendix E extension of Definition 4.
func TestAugmentedLoopThroughClientEdge(t *testing.T) {
	g, a := bridgeGraph(t)

	// Without clients, 0 tracks no non-incident edge (the share graph is
	// a tree: 1–0–3–2).
	plain := BuildTSGraph(g, 0, LoopOptions{})
	if len(plain.NonIncidentEdges()) != 0 {
		t.Fatalf("plain share graph should be a tree; got extra edges %v", plain.NonIncidentEdges())
	}

	// With the client bridge, the cycle 0–1~2–3–0 exists in Ĝ (~ is the
	// client edge). For edge e(2→3): j=2, k=3; loop (0, L=[3]... no:
	// L must end at k=3: L=[3] means hop 0→3 then R=[2,1]: 2→1 client
	// edge, 1→0 real. Conditions: (i) X23={b}−∅ ≠ ∅; (ii) X_{2,1}=∅ but
	// client pair(2,1) holds; (iii) q=2: X_{1,0}={a} − X3 ≠ ∅.
	lp := Loop{I: 0, L: []ReplicaID{3}, R: []ReplicaID{2, 1}}
	if !a.IsAugmentedIEJKLoop(lp) {
		t.Error("(0,3,2,1,0) should be an augmented (0, e(2→3))-loop")
	}
	if g.IsIEJKLoop(lp) {
		t.Error("plain Definition 4 should reject the loop (edge 2–1 is client-only)")
	}

	ats := a.BuildAugmentedTSGraph(0, LoopOptions{})
	if !ats.Has(Edge{2, 3}) {
		t.Error("Ê_0 missing e(2→3)")
	}
	// Ê_i ∩ E: the client edge itself must never be tracked.
	for _, e := range ats.Edges() {
		if !g.HasEdge(e) {
			t.Errorf("Ê_0 contains non-share edge %v", e)
		}
	}
}

func TestAugmentedTSGraphSupersetOfPlain(t *testing.T) {
	// Adding clients can only add tracked edges, never remove them.
	g := Fig5Example()
	a, err := NewAugmented(g, ClientAssignment{{0, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumReplicas(); i++ {
		plain := BuildTSGraph(g, ReplicaID(i), LoopOptions{})
		aug := a.BuildAugmentedTSGraph(ReplicaID(i), LoopOptions{})
		for _, e := range plain.Edges() {
			if !aug.Has(e) {
				t.Errorf("replica %d: plain edge %v missing from augmented graph", i, e)
			}
		}
	}
}

func TestClientTSEdges(t *testing.T) {
	_, a := bridgeGraph(t)
	graphs := a.BuildAllAugmentedTSGraphs(LoopOptions{})
	edges := a.ClientTSEdges(0, graphs)
	// The client accesses replicas 1 and 2; its timestamp universe is
	// Ê_1 ∪ Ê_2 and must contain each replica's incident edges.
	want := []Edge{{0, 1}, {1, 0}, {2, 3}, {3, 2}}
	set := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		set[e] = true
	}
	for _, e := range want {
		if !set[e] {
			t.Errorf("client timestamp universe missing %v (got %v)", e, edges)
		}
	}
	if a.NumClients() != 1 {
		t.Errorf("NumClients = %d, want 1", a.NumClients())
	}
	rs := a.ClientReplicas(0)
	if len(rs) != 2 || rs[0] != 1 || rs[1] != 2 {
		t.Errorf("ClientReplicas(0) = %v, want [1 2]", rs)
	}
	cs := a.ClientsFor(1)
	if len(cs) != 1 || cs[0] != 0 {
		t.Errorf("ClientsFor(1) = %v, want [0]", cs)
	}
}

// bruteForceHasAugmentedLoop enumerates every simple cycle through i in Ĝ
// and every L/R split, checking Definition 27 via IsAugmentedIEJKLoop —
// the oracle the augmented reference DFS is validated against.
func bruteForceHasAugmentedLoop(a *AugmentedGraph, i ReplicaID, e Edge) bool {
	n := a.G.NumReplicas()
	found := false
	used := make([]bool, n)
	used[i] = true
	var cycle []ReplicaID
	var dfs func(cur ReplicaID)
	dfs = func(cur ReplicaID) {
		if found {
			return
		}
		for _, nxt := range a.Neighbors(cur) {
			if found {
				return
			}
			if nxt == i && len(cycle) >= 2 {
				for p := 1; p < len(cycle); p++ {
					k, j := cycle[p-1], cycle[p]
					if (Edge{j, k}) != e {
						continue
					}
					lp := Loop{I: i, L: append([]ReplicaID(nil), cycle[:p]...), R: append([]ReplicaID(nil), cycle[p:]...)}
					if a.IsAugmentedIEJKLoop(lp) {
						found = true
						return
					}
				}
				continue
			}
			if used[nxt] {
				continue
			}
			used[nxt] = true
			cycle = append(cycle, nxt)
			dfs(nxt)
			cycle = cycle[:len(cycle)-1]
			used[nxt] = false
		}
	}
	dfs(i)
	return found
}

// TestAugmentedLoopMatchesBruteForce cross-validates the augmented
// reference DFS against exhaustive enumeration on random graphs with random
// client assignments.
func TestAugmentedLoopMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := placementFromSeed(seed, 5, 7)
		// One or two random clients spanning 2 replicas each.
		assignment := randomClients(g, newTestRand(seed^0x1234), 2)
		a, err := NewAugmented(g, assignment)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.NumReplicas(); i++ {
			for _, e := range g.Edges() {
				if e.From == ReplicaID(i) || e.To == ReplicaID(i) {
					continue
				}
				_, fast := refFindLoop(g, a, ReplicaID(i), e, LoopOptions{})
				slow := bruteForceHasAugmentedLoop(a, ReplicaID(i), e)
				if fast != slow {
					t.Fatalf("seed %d replica %d edge %v: fast=%v brute=%v\n%s clients=%v",
						seed, i, e, fast, slow, g, assignment)
				}
			}
		}
	}
}

// TestTimestampEntriesBelowMatrix: the paper's algorithm never needs more
// counters than an R×R matrix clock, on any placement.
func TestTimestampEntriesBelowMatrix(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := placementFromSeed(seed, 7, 10)
		r := g.NumReplicas()
		for i := 0; i < r; i++ {
			ts := BuildTSGraph(g, ReplicaID(i), LoopOptions{})
			if ts.Len() > r*(r-1) {
				t.Fatalf("seed %d replica %d: %d entries exceeds R(R-1)=%d",
					seed, i, ts.Len(), r*(r-1))
			}
		}
	}
}

func TestGeneratorsValidate(t *testing.T) {
	graphs := map[string]*Graph{
		"fig3":    Fig3Example(),
		"fig5":    Fig5Example(),
		"ring5":   Ring(5),
		"line4":   Line(4),
		"star5":   Star(5),
		"tree":    Tree([]int{0, 0, 1, 1, 2}),
		"fullrep": FullReplication(4, 2),
		"pairclq": PairClique(5),
		"grid":    Grid(3, 3),
		"randomk": RandomK(8, 20, 3, 42),
	}
	for name, g := range graphs {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !g.Connected() && name != "randomk" {
			t.Errorf("%s: expected connected share graph", name)
		}
	}
	hm1, _ := HelaryMilani1()
	hm2, _ := HelaryMilani2()
	if err := hm1.Validate(); err != nil {
		t.Errorf("hm1: %v", err)
	}
	if err := hm2.Validate(); err != nil {
		t.Errorf("hm2: %v", err)
	}
}

func TestRandomKDeterministic(t *testing.T) {
	g1 := RandomK(8, 15, 3, 7)
	g2 := RandomK(8, 15, 3, 7)
	for i := 0; i < 8; i++ {
		if !g1.Stores(ReplicaID(i)).Equal(g2.Stores(ReplicaID(i))) {
			t.Fatalf("RandomK not deterministic for seed 7 at replica %d", i)
		}
	}
}
