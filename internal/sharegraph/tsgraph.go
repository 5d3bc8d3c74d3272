package sharegraph

import (
	"fmt"
	"strings"
)

// TSGraph is the timestamp graph G_i of a replica (Definition 5): the set
// of directed share-graph edges whose update counters replica i must keep
// in its timestamp. It contains every directed edge incident at i (both
// directions) plus every edge e_jk (j ≠ i ≠ k) for which an (i, e_jk)-loop
// exists. Timestamp-graph edges are not necessarily bidirectional.
// Witness loops are not stored; WitnessLoop recomputes them from the graph
// and options the TSGraph was built with.
type TSGraph struct {
	Owner ReplicaID
	edges []Edge       // deterministic order: sorted (From, To)
	index map[Edge]int // edge → position in edges

	g    *Graph          // nil for NewTSGraphFromEdges
	aug  *AugmentedGraph // non-nil for augmented builds
	opts LoopOptions
}

// BuildTSGraph computes G_i for replica i by (i, e_jk)-loop search over
// every non-incident share-graph edge, using the dominance-pruned engine
// (see search.go) so dense topologies build untruncated. opts.MaxLen, when
// non-zero, truncates the search to loops of at most that many vertices
// (the Appendix D causality-sacrificing optimization).
func BuildTSGraph(g *Graph, i ReplicaID, opts LoopOptions) *TSGraph {
	return buildTSGraphs(NewLoopSearcher(g), i, i+1, opts)[0]
}

// buildTSGraphs builds the timestamp graphs of owners lo … hi-1 in one
// pass over the share-graph edges: each edge is set up once, then asked
// of every owner, so the searcher's per-j and per-edge pre-filters (see
// search.go) serve all owners. Each owner's list is collected in edge
// order, which is the sorted order. Incident edges of Ĝ intersected with
// E are exactly the share-graph incident edges (client-only edges carry no
// registers), so augmented searchers build through the same loop.
func buildTSGraphs(s *LoopSearcher, lo, hi ReplicaID, opts LoopOptions) []*TSGraph {
	es := &s.es
	lists := make([][]Edge, hi-lo)
	for _, e := range es.g.Edges() {
		es.setEdge(e, opts)
		for i := lo; i < hi; i++ {
			if i == e.From || i == e.To {
				lists[i-lo] = append(lists[i-lo], e)
			} else if _, ok := es.search(i); ok {
				lists[i-lo] = append(lists[i-lo], e)
			}
		}
	}
	out := make([]*TSGraph, len(lists))
	for x, edges := range lists {
		out[x] = newTSGraph(lo+ReplicaID(x), edges)
		out[x].g, out[x].aug, out[x].opts = es.g, es.aug, opts
	}
	return out
}

// newTSGraph indexes edges, which must be distinct and sorted.
func newTSGraph(owner ReplicaID, edges []Edge) *TSGraph {
	t := &TSGraph{Owner: owner, edges: edges, index: make(map[Edge]int, len(edges))}
	for idx, e := range edges {
		t.index[e] = idx
	}
	return t
}

// NewTSGraphFromEdges builds a TSGraph-shaped edge index over an explicit
// edge set. It is used for client timestamps in the client-server
// architecture (whose universe ∪_{r∈Rc} Ê_r is not itself a Definition 5
// timestamp graph) and by the Appendix D optimizations that shrink or
// extend the tracked edge set. Edges are deduplicated and sorted.
func NewTSGraphFromEdges(owner ReplicaID, edges []Edge) *TSGraph {
	uniq := make([]Edge, 0, len(edges))
	seen := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			uniq = append(uniq, e)
		}
	}
	sortEdges(uniq)
	return newTSGraph(owner, uniq)
}

// BuildAllTSGraphs computes the timestamp graph of every replica. One
// exact searcher answers every query, edge by edge, so its working memory
// and per-edge pre-filters are shared across replicas.
func BuildAllTSGraphs(g *Graph, opts LoopOptions) []*TSGraph {
	return buildTSGraphs(NewLoopSearcher(g), 0, ReplicaID(g.r), opts)
}

// Len returns |E_i|, the number of tracked edges (= timestamp entries
// before compression).
func (t *TSGraph) Len() int { return len(t.edges) }

// Edges returns the tracked edges in deterministic order. The returned
// slice is shared with the graph and must not be modified.
func (t *TSGraph) Edges() []Edge { return t.edges }

// Has reports whether edge e is tracked by this timestamp graph.
func (t *TSGraph) Has(e Edge) bool {
	_, ok := t.index[e]
	return ok
}

// Index returns the position of edge e in the edge order, and whether the
// edge is tracked at all. Timestamp vectors are indexed by this position.
func (t *TSGraph) Index(e Edge) (int, bool) {
	idx, ok := t.index[e]
	return idx, ok
}

// WitnessLoop returns the (i, e_jk)-loop that justified tracking a
// non-incident edge, if e is tracked and non-incident. Witnesses are
// recomputed, not stored: each call runs the search again on a fresh
// searcher with the build's LoopOptions, so it is safe for concurrent use
// and the loop respects MaxLen. Graphs from NewTSGraphFromEdges have none.
func (t *TSGraph) WitnessLoop(e Edge) (Loop, bool) {
	if t.g == nil || !t.Has(e) {
		return Loop{}, false
	}
	s := &LoopSearcher{}
	s.es.init(t.g, t.aug)
	return s.Find(t.Owner, e, t.opts)
}

// NonIncidentEdges returns the tracked edges not incident at the owner —
// the edges justified by loops rather than adjacency.
func (t *TSGraph) NonIncidentEdges() []Edge {
	var out []Edge
	for _, e := range t.edges {
		if e.From != t.Owner && e.To != t.Owner {
			out = append(out, e)
		}
	}
	return out
}

// String renders the tracked edge set.
func (t *TSGraph) String() string {
	parts := make([]string, len(t.edges))
	for i, e := range t.edges {
		parts[i] = e.String()
	}
	return fmt.Sprintf("G_%d: [%s]", t.Owner, strings.Join(parts, " "))
}

// Intersection enumerates E_i ∩ E_k as aligned index pairs (position in
// t's order, position in other's order), in t's edge order. merge and the
// delivery predicate J operate on exactly this intersection.
func (t *TSGraph) Intersection(other *TSGraph) [][2]int {
	var out [][2]int
	for idx, e := range t.edges {
		if oidx, ok := other.index[e]; ok {
			out = append(out, [2]int{idx, oidx})
		}
	}
	return out
}
