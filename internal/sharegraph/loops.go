package sharegraph

import "fmt"

// Loop is a simple loop witnessing that e_{jk} must be tracked by replica i
// (an (i, e_jk)-loop, Definition 4). Written out, the loop is
//
//	(i, L[0], …, L[s-1]=k, R[0]=j, …, R[t-1], i)
//
// so L is the "l-path" from i to k (l_1 … l_s with l_s = k) and R is the
// "r-path" from j back towards i (r_1 … r_t with r_1 = j); the loop closes
// with the edge from R[t-1] to i (the paper defines r_{t+1} = i).
type Loop struct {
	I ReplicaID
	L []ReplicaID // l_1 .. l_s, with l_s = k
	R []ReplicaID // r_1 .. r_t, with r_1 = j
}

// Vertices returns the full vertex sequence of the loop starting and
// ending at I.
func (lp Loop) Vertices() []ReplicaID {
	out := make([]ReplicaID, 0, len(lp.L)+len(lp.R)+2)
	out = append(out, lp.I)
	out = append(out, lp.L...)
	out = append(out, lp.R...)
	out = append(out, lp.I)
	return out
}

// Len returns the number of distinct vertices on the loop.
func (lp Loop) Len() int { return 1 + len(lp.L) + len(lp.R) }

// Edge returns the tracked edge e_jk this loop witnesses.
func (lp Loop) Edge() Edge {
	return Edge{From: lp.R[0], To: lp.L[len(lp.L)-1]}
}

// String renders the loop as loop[i l1 ... k j ... rt i].
func (lp Loop) String() string {
	return fmt.Sprintf("loop%v", lp.Vertices())
}

// LoopOptions controls the (i, e_jk)-loop search.
type LoopOptions struct {
	// MaxLen bounds the number of distinct vertices allowed on a loop;
	// 0 means unbounded. Bounding the loop length implements the
	// "sacrificing causality" truncation of Appendix D.
	MaxLen int
}

// IsIEJKLoop checks whether the given simple loop is an (i, e_jk)-loop per
// Definition 4: it verifies simplicity, presence of all structural edges,
// s ≥ 1, t ≥ 1, and the three register-set side conditions. The edge e_jk
// being witnessed is implied by the loop itself (j = R[0], k = L[s-1]).
// The check runs on the graph's canonical bitmask tables with pooled
// scratch, so it is cheap enough to validate every witness inside the
// engine's differential and fuzz loops.
func (g *Graph) IsIEJKLoop(lp Loop) bool {
	return checkIEJKLoop(g, nil, lp)
}

// checkIEJKLoop validates Definition 4 (aug == nil) or Definition 27
// (aug != nil, which relaxes structural edges to Ĝ and lets client pairs
// stand in for conditions (ii)/(iii)).
func checkIEJKLoop(g *Graph, aug *AugmentedGraph, lp Loop) bool {
	s, t := len(lp.L), len(lp.R)
	if s < 1 || t < 1 {
		return false
	}
	// Structural edges along the cycle first: each hop must be a share
	// (or, augmented, Ĝ) edge, which also proves every vertex names a
	// real replica before any slice indexing below.
	prev := lp.I
	for _, v := range lp.L {
		if !structEdge(g, aug, prev, v) {
			return false
		}
		prev = v
	}
	for _, v := range lp.R {
		if !structEdge(g, aug, prev, v) {
			return false
		}
		prev = v
	}
	if !structEdge(g, aug, prev, lp.I) {
		return false
	}
	idx := g.searchIndex()
	sc := idx.scratch()
	defer idx.release(sc)
	// Simplicity: all vertices distinct.
	maskZero(sc.seen)
	bitSet(sc.seen, int(lp.I))
	for _, v := range lp.L {
		if bitGet(sc.seen, int(v)) {
			return false
		}
		bitSet(sc.seen, int(v))
	}
	for _, v := range lp.R {
		if bitGet(sc.seen, int(v)) {
			return false
		}
		bitSet(sc.seen, int(v))
	}
	j, k := lp.R[0], lp.L[s-1]
	// interior = ∪_{1≤p≤s-1} X_{l_p}; full = interior ∪ X_{l_s}. Private
	// registers never occur in edge labels, so the shared-register masks
	// decide the conditions exactly.
	maskZero(sc.interior)
	for _, v := range lp.L[:s-1] {
		maskOr(sc.interior, idx.xb[v])
	}
	// (i) X_jk − interior ≠ ∅: a real share edge in both variants.
	if !maskDiffNonEmpty(idx.eb[Edge{j, k}], sc.interior) {
		return false
	}
	// (ii) hop j → r_2 against interior, where r_2 = R[1] if t ≥ 2 else i.
	r2 := lp.I
	if t >= 2 {
		r2 = lp.R[1]
	}
	if !condHop(idx, aug, j, r2, sc.interior) {
		return false
	}
	// (iii) for 2 ≤ q ≤ t: hop r_q → r_{q+1} against full, with r_{t+1} = i.
	maskCopy(sc.full, sc.interior)
	maskOr(sc.full, idx.xb[k])
	for q := 2; q <= t; q++ {
		cur := lp.R[q-1]
		next := lp.I
		if q < t {
			next = lp.R[q]
		}
		if !condHop(idx, aug, cur, next, sc.full) {
			return false
		}
	}
	return true
}

// structEdge is the structural-edge test of the applicable definition:
// share edges only, or Ĝ edges when augmented.
func structEdge(g *Graph, aug *AugmentedGraph, from, to ReplicaID) bool {
	if aug != nil {
		return aug.HasEdge(Edge{from, to})
	}
	return g.HasEdge(Edge{from, to})
}

// condHop evaluates one side-condition hop: "X_uv − excluded ≠ ∅", with
// a client pair standing in when augmented.
func condHop(idx *searchIndex, aug *AugmentedGraph, u, v ReplicaID, excluded []uint64) bool {
	if aug != nil && aug.clientPair[Edge{u, v}] {
		return true
	}
	return maskDiffNonEmpty(idx.eb[Edge{u, v}], excluded)
}
