package sharegraph

// refFindLoop is the reference the loop engine (search.go) is held to: an
// exhaustive DFS over simple loops through i, with the register-set
// conditions evaluated incrementally on RegisterSets, so it decides
// existence exactly, subject to opts.MaxLen. With aug == nil it searches
// (i, e_jk)-loops of Definition 4 in the share graph; otherwise augmented
// loops of Definition 27 in Ĝ, where the tracked edge e must be a real
// share-graph edge but the loop may traverse client edges and a client pair
// satisfies conditions (ii)/(iii). Its cost is exponential in the number of
// replicas, so it only runs on small graphs.
func refFindLoop(g *Graph, aug *AugmentedGraph, i ReplicaID, e Edge, opts LoopOptions) (Loop, bool) {
	j, k := e.From, e.To
	if i == j || i == k || j == k || !g.HasEdge(e) {
		return Loop{}, false
	}
	maxLen := opts.MaxLen
	if maxLen <= 0 || maxLen > g.r {
		maxLen = g.r
	}
	adj := g.adj
	if aug != nil {
		adj = aug.adj
	}
	// hop evaluates "X_uv − excluded ≠ ∅", or a client pair when augmented.
	hop := func(u, v ReplicaID, excluded RegisterSet) bool {
		if aug != nil && aug.clientPair[Edge{u, v}] {
			return true
		}
		return g.shared[Edge{u, v}].DiffNonEmpty(excluded)
	}
	used := make([]bool, g.r)
	used[i] = true
	used[j] = true // j sits on the loop; the l-path must avoid it
	var (
		lpath []ReplicaID
		found Loop
		ok    bool
	)
	record := func(rpath []ReplicaID) {
		found = Loop{
			I: i,
			L: append([]ReplicaID(nil), lpath...),
			R: append([]ReplicaID(nil), rpath...),
		}
		ok = true
	}

	// Phase 2: extend the r-path beyond r_2. Every hop here (including the
	// closing hop to i) is an "r_q → r_{q+1}, q ≥ 2" hop, so it must
	// satisfy condition (iii) against full.
	var extendR func(rpath []ReplicaID, full RegisterSet) bool
	extendR = func(rpath []ReplicaID, full RegisterSet) bool {
		cur := rpath[len(rpath)-1]
		if hop(cur, i, full) {
			record(rpath)
			return true
		}
		if 1+len(lpath)+len(rpath) >= maxLen {
			return false
		}
		for _, nxt := range adj[cur] {
			if used[nxt] || nxt == i || !hop(cur, nxt, full) {
				continue
			}
			used[nxt] = true
			done := extendR(append(rpath, nxt), full)
			used[nxt] = false
			if done {
				return true
			}
		}
		return false
	}

	// tryRPath starts the r-path once the l-path is complete (lpath ends
	// in k and condition (i) holds). interior excludes X_k; full includes it.
	tryRPath := func(interior, full RegisterSet) bool {
		// t = 1: the loop closes j → i directly; condition (ii) applies to
		// X_{j i} against interior, and condition (iii) is vacuous.
		if hop(j, i, interior) {
			record([]ReplicaID{j})
			return true
		}
		if 1+len(lpath)+1 >= maxLen {
			return false
		}
		// t ≥ 2: first hop j → r_2 must satisfy condition (ii) (interior).
		for _, r2 := range adj[j] {
			if used[r2] || r2 == i || !hop(j, r2, interior) {
				continue
			}
			used[r2] = true
			done := extendR([]ReplicaID{j, r2}, full)
			used[r2] = false
			if done {
				return true
			}
		}
		return false
	}

	// Phase 1: grow the l-path from i towards k, avoiding j.
	var extendL func(cur ReplicaID, interior RegisterSet) bool
	extendL = func(cur ReplicaID, interior RegisterSet) bool {
		if 1+len(lpath)+1 >= maxLen { // must still fit k and at least j
			return false
		}
		for _, nxt := range adj[cur] {
			if used[nxt] {
				continue
			}
			if nxt == k {
				if !g.shared[e].DiffNonEmpty(interior) {
					continue // condition (i) fails for this interior set
				}
				lpath = append(lpath, k)
				used[k] = true
				done := tryRPath(interior, union(interior, g.stores[k]))
				used[k] = false
				lpath = lpath[:len(lpath)-1]
				if done {
					return true
				}
				continue
			}
			used[nxt] = true
			lpath = append(lpath, nxt)
			done := extendL(nxt, union(interior, g.stores[nxt]))
			lpath = lpath[:len(lpath)-1]
			used[nxt] = false
			if done {
				return true
			}
		}
		return false
	}

	extendL(i, make(RegisterSet))
	return found, ok
}

// buildTSGraphWith is the per-owner reference builder: owner i's incident
// edges plus every non-incident edge the given finder witnesses. The
// byte-identity tests build through it with refFinder and require the
// engine's edge-outer builders to produce the same edge lists.
func buildTSGraphWith(g *Graph, i ReplicaID, opts LoopOptions, find func(ReplicaID, Edge, LoopOptions) (Loop, bool)) *TSGraph {
	var edges []Edge
	for _, j := range g.Neighbors(i) {
		edges = append(edges, Edge{i, j}, Edge{j, i})
	}
	for _, e := range g.Edges() {
		if e.From == i || e.To == i {
			continue
		}
		if _, ok := find(i, e, opts); ok {
			edges = append(edges, e)
		}
	}
	sortEdges(edges)
	return newTSGraph(i, edges)
}

// refFinder adapts refFindLoop to buildTSGraphWith's finder signature.
func refFinder(g *Graph, aug *AugmentedGraph) func(ReplicaID, Edge, LoopOptions) (Loop, bool) {
	return func(i ReplicaID, e Edge, opts LoopOptions) (Loop, bool) {
		return refFindLoop(g, aug, i, e, opts)
	}
}

// union returns a new set holding s ∪ t.
func union(s, t RegisterSet) RegisterSet { return s.Clone().UnionInPlace(t) }
