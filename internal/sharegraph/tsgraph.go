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
type TSGraph struct {
	Owner ReplicaID
	edges []Edge        // deterministic order: sorted (From, To)
	index map[Edge]int  // edge → position in edges
	loops map[Edge]Loop // witness loop per non-incident edge (diagnostics)
}

// BuildTSGraph computes G_i for replica i by (i, e_jk)-loop search over
// every non-incident share-graph edge, using the dominance-pruned engine
// (see search.go) so dense topologies build untruncated. opts.MaxLen, when
// non-zero, truncates the search to loops of at most that many vertices
// (the Appendix D causality-sacrificing optimization).
func BuildTSGraph(g *Graph, i ReplicaID, opts LoopOptions) *TSGraph {
	return buildTSGraphWith(g, i, opts, NewLoopSearcher(g).Find)
}

// buildTSGraphWith assembles a timestamp graph from incident edges plus
// every non-incident edge the given loop finder witnesses. The finder is
// a parameter so the differential tests can build through the reference
// DFS and require byte-identical edge sets.
func buildTSGraphWith(g *Graph, i ReplicaID, opts LoopOptions, find func(ReplicaID, Edge, LoopOptions) (Loop, bool)) *TSGraph {
	t := &TSGraph{
		Owner: i,
		index: make(map[Edge]int),
		loops: make(map[Edge]Loop),
	}
	var edges []Edge
	for _, j := range g.Neighbors(i) {
		edges = append(edges, Edge{i, j}, Edge{j, i})
	}
	for _, e := range g.Edges() {
		if e.From == i || e.To == i {
			continue
		}
		if lp, ok := find(i, e, opts); ok {
			edges = append(edges, e)
			t.loops[e] = lp
		}
	}
	sortEdges(edges)
	t.edges = edges
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
	t := &TSGraph{
		Owner: owner,
		index: make(map[Edge]int, len(edges)),
		loops: make(map[Edge]Loop),
	}
	uniq := make([]Edge, 0, len(edges))
	seen := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			uniq = append(uniq, e)
		}
	}
	sortEdges(uniq)
	t.edges = uniq
	for idx, e := range uniq {
		t.index[e] = idx
	}
	return t
}

// BuildAllTSGraphs computes the timestamp graph of every replica. One
// exact searcher is shared across replicas so its working memory is
// reused for every query.
func BuildAllTSGraphs(g *Graph, opts LoopOptions) []*TSGraph {
	s := NewLoopSearcher(g)
	out := make([]*TSGraph, g.NumReplicas())
	for i := range out {
		out[i] = buildTSGraphWith(g, ReplicaID(i), opts, s.Find)
	}
	return out
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
// non-incident edge, if e is tracked and non-incident.
func (t *TSGraph) WitnessLoop(e Edge) (Loop, bool) {
	lp, ok := t.loops[e]
	return lp, ok
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
