package sharegraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// newTestRand builds a seeded PRNG for deterministic property tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestFig5LoopClassification reproduces the worked example after
// Definition 4: on the Figure 5a share graph, (1,2,3,4) is a (1,e43)-loop
// and a (1,e32)-loop, while (1,4,3,2) is neither a (1,e34)-loop nor a
// (1,e23)-loop. Zero-based, paper replica r is our r-1.
func TestFig5LoopClassification(t *testing.T) {
	g := Fig5Example()

	// (1,2,3,4) as a (1,e43)-loop: i=0, L=[1,2] (l-path ending at k=2,
	// paper's 3), R=[3] (j=3, paper's 4).
	loopE43 := Loop{I: 0, L: []ReplicaID{1, 2}, R: []ReplicaID{3}}
	if !g.IsIEJKLoop(loopE43) {
		t.Error("(1,2,3,4) should be a (1,e43)-loop")
	}
	// (1,2,3,4) as a (1,e32)-loop: i=0, L=[1] (k=1, paper's 2),
	// R=[2,3] (j=2, paper's 3).
	loopE32 := Loop{I: 0, L: []ReplicaID{1}, R: []ReplicaID{2, 3}}
	if !g.IsIEJKLoop(loopE32) {
		t.Error("(1,2,3,4) should be a (1,e32)-loop")
	}
	// (1,4,3,2) as a candidate (1,e34)-loop: i=0, L=[3] (k=3, paper's 4)
	// — wait: e34 has j=2 (paper 3), k=3 (paper 4): L ends at paper-4=3,
	// R starts at paper-3=2: L=[3]? The loop (1,4,3,2) walks 0→3→2→1→0,
	// so L=[3] is wrong for e34 (k is paper-4): e34 means j=paper3=2,
	// k=paper4=3. Loop written (i, l1=4, ... no: (1,4,3,2) as
	// (i, l..s=k, j=r1..rt, i) with k=paper4, j=paper3 gives L=[3], R=[2,1].
	if g.IsIEJKLoop(Loop{I: 0, L: []ReplicaID{3}, R: []ReplicaID{2, 1}}) {
		t.Error("(1,4,3,2) should not be a (1,e34)-loop (violates condition (iii): X21 − X4 = ∅)")
	}
	// (1,4,3,2) as a candidate (1,e23)-loop: j=paper2=1, k=paper3=2:
	// L=[3,2], R=[1].
	if g.IsIEJKLoop(Loop{I: 0, L: []ReplicaID{3, 2}, R: []ReplicaID{1}}) {
		t.Error("(1,4,3,2) should not be a (1,e23)-loop")
	}

	// The loop search must agree with the classification above.
	s := NewLoopSearcher(g)
	if !s.Has(0, Edge{3, 2}, LoopOptions{}) {
		t.Error("search missed the (1,e43)-loop")
	}
	if !s.Has(0, Edge{2, 1}, LoopOptions{}) {
		t.Error("search missed the (1,e32)-loop")
	}
	if s.Has(0, Edge{2, 3}, LoopOptions{}) {
		t.Error("search found a (1,e34)-loop; none should exist")
	}
	if s.Has(0, Edge{1, 2}, LoopOptions{}) {
		t.Error("search found a (1,e23)-loop; none should exist")
	}
}

func TestLoopRejectsDegenerate(t *testing.T) {
	g := Fig5Example()
	if g.IsIEJKLoop(Loop{I: 0}) {
		t.Error("empty loop accepted")
	}
	// Non-simple loop (repeated vertex).
	if g.IsIEJKLoop(Loop{I: 0, L: []ReplicaID{1, 1}, R: []ReplicaID{3}}) {
		t.Error("non-simple loop accepted")
	}
	// Missing structural edge (0 and 2 share nothing).
	if g.IsIEJKLoop(Loop{I: 0, L: []ReplicaID{2}, R: []ReplicaID{3}}) {
		t.Error("loop with missing edge accepted")
	}
	// Search for loops on edges incident to i is meaningless by definition.
	s := NewLoopSearcher(g)
	if s.Has(0, Edge{0, 1}, LoopOptions{}) {
		t.Error("loop found for incident edge")
	}
	if s.Has(0, Edge{5, 9}, LoopOptions{}) {
		t.Error("loop found for nonexistent edge")
	}
}

func TestLoopEdgeAccessors(t *testing.T) {
	lp := Loop{I: 0, L: []ReplicaID{1, 2}, R: []ReplicaID{3}}
	if e := lp.Edge(); e != (Edge{3, 2}) {
		t.Errorf("Edge() = %v, want e(3->2)", e)
	}
	if lp.Len() != 4 {
		t.Errorf("Len() = %d, want 4", lp.Len())
	}
	verts := lp.Vertices()
	want := []ReplicaID{0, 1, 2, 3, 0}
	if len(verts) != len(want) {
		t.Fatalf("Vertices() = %v, want %v", verts, want)
	}
	for i := range want {
		if verts[i] != want[i] {
			t.Fatalf("Vertices() = %v, want %v", verts, want)
		}
	}
}

// bruteForceHasLoop enumerates every simple loop through i by DFS and
// every way of splitting it into an l-path and r-path, then checks
// Definition 4 via IsIEJKLoop. It is the oracle the reference DFS
// (refFindLoop) is validated against.
func bruteForceHasLoop(g *Graph, i ReplicaID, e Edge) bool {
	n := g.NumReplicas()
	found := false
	used := make([]bool, n)
	used[i] = true
	var cycle []ReplicaID // vertices after i
	var dfs func(cur ReplicaID)
	dfs = func(cur ReplicaID) {
		if found {
			return
		}
		for _, nxt := range g.Neighbors(cur) {
			if found {
				return
			}
			if nxt == i && len(cycle) >= 2 {
				// Found a simple cycle i, cycle..., i. Try all splits:
				// L = cycle[:p], R = cycle[p:] with 1 <= p <= len-1.
				for p := 1; p < len(cycle); p++ {
					k, j := cycle[p-1], cycle[p]
					if (Edge{j, k}) != e {
						continue
					}
					lp := Loop{I: i, L: append([]ReplicaID(nil), cycle[:p]...), R: append([]ReplicaID(nil), cycle[p:]...)}
					if g.IsIEJKLoop(lp) {
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

// TestFindLoopMatchesBruteForce cross-validates the reference DFS against
// exhaustive enumeration on random small share graphs.
func TestFindLoopMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		g := placementFromSeed(seed, 6, 8)
		for i := 0; i < g.NumReplicas(); i++ {
			for _, e := range g.Edges() {
				if e.From == ReplicaID(i) || e.To == ReplicaID(i) {
					continue
				}
				_, fast := refFindLoop(g, nil, ReplicaID(i), e, LoopOptions{})
				slow := bruteForceHasLoop(g, ReplicaID(i), e)
				if fast != slow {
					t.Logf("seed %d: replica %d edge %v: fast=%v brute=%v\n%s",
						seed, i, e, fast, slow, g)
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

// TestFoundLoopIsValidWitness: whenever the reference DFS returns a loop,
// that loop must itself satisfy Definition 4 and witness the requested edge.
func TestFoundLoopIsValidWitness(t *testing.T) {
	prop := func(seed int64) bool {
		g := placementFromSeed(seed, 7, 10)
		for i := 0; i < g.NumReplicas(); i++ {
			for _, e := range g.Edges() {
				if e.From == ReplicaID(i) || e.To == ReplicaID(i) {
					continue
				}
				lp, ok := refFindLoop(g, nil, ReplicaID(i), e, LoopOptions{})
				if !ok {
					continue
				}
				if !g.IsIEJKLoop(lp) || lp.Edge() != e || lp.I != ReplicaID(i) {
					t.Logf("seed %d: invalid witness %v for replica %d edge %v", seed, lp, i, e)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestMaxLenMonotonicity: raising MaxLen can only discover more loops.
func TestMaxLenMonotonicity(t *testing.T) {
	g := Ring(6)
	e := Edge{3, 4} // far side of the ring from replica 0
	s := NewLoopSearcher(g)
	if s.Has(0, e, LoopOptions{MaxLen: 5}) {
		t.Error("ring loop of 6 vertices found with MaxLen=5")
	}
	if !s.Has(0, e, LoopOptions{MaxLen: 6}) {
		t.Error("ring loop not found with MaxLen=6")
	}
	if !s.Has(0, e, LoopOptions{}) {
		t.Error("ring loop not found with unbounded MaxLen")
	}
}
