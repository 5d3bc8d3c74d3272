package sharegraph

// This file implements the hoop machinery of Hélary and Milani that the
// paper discusses and corrects (Definitions 17, 18 and 20, Section 3.2 and
// Appendix A). It exists so the repository can demonstrate, executably,
// the paper's counterexamples: Definition 18 classifies loops as "minimal
// x-hoops" whose edges Theorem 8 proves unnecessary to track
// (counterexample 1, Figure 8a), while the modified Definition 20 excludes
// loops whose edges Theorem 8 proves necessary (counterexample 2,
// Figure 8b).

// Hoop is an x-hoop between two replicas in C(x) (Definition 17): a path
// whose interior vertices do not store x and whose consecutive pairs share
// registers other than x.
type Hoop struct {
	X    Register
	Path []ReplicaID // r_0 .. r_k with r_0, r_k ∈ C(x)
}

// edgeCount returns the number of edges on the hoop path.
func (h Hoop) edgeCount() int { return len(h.Path) - 1 }

// IsXHoop checks Definition 17 for the given register and path: endpoints
// store x, interior vertices do not, every consecutive pair shares some
// register other than x, and the path is simple.
func (g *Graph) IsXHoop(x Register, path []ReplicaID) bool {
	if len(path) < 2 {
		return false
	}
	seen := make(map[ReplicaID]bool, len(path))
	for _, v := range path {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	if !g.StoresRegister(path[0], x) || !g.StoresRegister(path[len(path)-1], x) {
		return false
	}
	for _, v := range path[1 : len(path)-1] {
		if g.StoresRegister(v, x) {
			return false
		}
	}
	for h := 0; h+1 < len(path); h++ {
		shared := g.Shared(path[h], path[h+1])
		if shared == nil {
			return false
		}
		if !shared.DiffNonEmpty(NewRegisterSet(x)) {
			return false
		}
	}
	return true
}

// MinimalHoopVariant selects which "minimal" condition to apply to an
// x-hoop labelling.
type MinimalHoopVariant int

const (
	// Original is Definition 18: each edge labelled with a distinct
	// register ≠ x, and no label stored by both hoop endpoints.
	Original MinimalHoopVariant = iota + 1
	// Modified is Definition 20: each edge labelled with a distinct
	// register ≠ x, and no label stored by more than two replicas of the
	// hoop.
	Modified
)

// IsMinimalXHoop checks whether the path is a minimal x-hoop under the
// chosen variant. "Each edge of the hoop can be labelled with a different
// register" is a system-of-distinct-representatives condition, decided by
// bipartite matching between hoop edges and candidate registers.
func (g *Graph) IsMinimalXHoop(x Register, path []ReplicaID, variant MinimalHoopVariant) bool {
	if !g.IsXHoop(x, path) {
		return false
	}
	n := len(path) - 1
	ra, rb := path[0], path[len(path)-1]
	candidates := make([][]Register, n)
	for h := 0; h < n; h++ {
		for r := range g.Shared(path[h], path[h+1]) {
			if r == x {
				continue
			}
			switch variant {
			case Original:
				// Label must not be shared by (stored at both) endpoints.
				if g.StoresRegister(ra, r) && g.StoresRegister(rb, r) {
					continue
				}
			case Modified:
				// Label must be stored by at most two replicas of the hoop.
				holders := 0
				for _, v := range path {
					if g.StoresRegister(v, r) {
						holders++
					}
				}
				if holders > 2 {
					continue
				}
			}
			candidates[h] = append(candidates[h], r)
		}
	}
	return hasDistinctLabels(candidates)
}

// hasDistinctLabels decides whether every edge can pick a distinct label
// from its candidate list (Hall's condition via augmenting paths).
func hasDistinctLabels(candidates [][]Register) bool {
	assigned := make(map[Register]int) // register → edge currently using it
	var try func(edge int, visited map[Register]bool) bool
	try = func(edge int, visited map[Register]bool) bool {
		for _, r := range candidates[edge] {
			if visited[r] {
				continue
			}
			visited[r] = true
			prev, taken := assigned[r]
			if !taken || try(prev, visited) {
				assigned[r] = edge
				return true
			}
		}
		return false
	}
	for e := range candidates {
		if !try(e, make(map[Register]bool)) {
			return false
		}
	}
	return true
}

// FindMinimalXHoopThrough searches for a minimal x-hoop (under the chosen
// variant) that passes through replica via as an interior vertex, between
// some pair of replicas in C(x). It returns a witness hoop if one exists.
// This implements the membership test in Hélary–Milani's Lemma 19 ("the
// replica belongs to a minimal x-hoop") that the paper's counterexamples
// target.
func (g *Graph) FindMinimalXHoopThrough(x Register, via ReplicaID, variant MinimalHoopVariant) (Hoop, bool) {
	if g.StoresRegister(via, x) {
		return Hoop{}, false
	}
	holders := g.Holders(x)
	for _, ra := range holders {
		for _, rb := range holders {
			if ra == rb {
				continue
			}
			if path, ok := g.findHoopPath(x, ra, rb, via, variant); ok {
				return Hoop{X: x, Path: path}, true
			}
		}
	}
	return Hoop{}, false
}

// findHoopPath enumerates simple paths ra → rb whose interior avoids C(x),
// requiring the path to pass through via, and returns the first one that
// is a minimal x-hoop under the variant.
func (g *Graph) findHoopPath(x Register, ra, rb, via ReplicaID, variant MinimalHoopVariant) ([]ReplicaID, bool) {
	used := make([]bool, g.NumReplicas())
	used[ra] = true
	path := []ReplicaID{ra}
	var out []ReplicaID
	var dfs func(cur ReplicaID) bool
	dfs = func(cur ReplicaID) bool {
		for _, nxt := range g.Neighbors(cur) {
			if used[nxt] {
				continue
			}
			if nxt == rb {
				candidate := append(append([]ReplicaID(nil), path...), rb)
				containsVia := false
				for _, v := range candidate[1 : len(candidate)-1] {
					if v == via {
						containsVia = true
						break
					}
				}
				if containsVia && g.IsMinimalXHoop(x, candidate, variant) {
					out = candidate
					return true
				}
				continue
			}
			if g.StoresRegister(nxt, x) {
				continue // interior vertices must avoid C(x)
			}
			used[nxt] = true
			path = append(path, nxt)
			done := dfs(nxt)
			path = path[:len(path)-1]
			used[nxt] = false
			if done {
				return true
			}
		}
		return false
	}
	if dfs(ra) {
		return out, true
	}
	return nil, false
}
