package sharegraph

import (
	"fmt"
	"sort"
)

// ClientID identifies a client in the client-server architecture.
type ClientID int

// ClientAssignment maps each client to R_c, the set of replicas it may
// access (Section 6). Client c may operate on any register in ∪_{r∈Rc} X_r.
type ClientAssignment [][]ReplicaID

// AugmentedGraph is the augmented share graph Ĝ of Definition 16: the
// share graph plus a directed edge pair between every two replicas that
// some client can both access. Client edges capture causal-dependency
// propagation through clients even across replicas sharing no registers.
type AugmentedGraph struct {
	G       *Graph
	clients ClientAssignment
	// clientPair[e] reports that some client can access both endpoints.
	clientPair map[Edge]bool
	adj        [][]ReplicaID // adjacency in Ĝ (share edges ∪ client edges)
}

// NewAugmented builds Ĝ from a share graph and a client assignment.
// Every client must name at least one valid replica.
func NewAugmented(g *Graph, clients ClientAssignment) (*AugmentedGraph, error) {
	a := &AugmentedGraph{
		G:          g,
		clients:    make(ClientAssignment, len(clients)),
		clientPair: make(map[Edge]bool),
	}
	n := g.NumReplicas()
	adjSet := make([]map[ReplicaID]bool, n)
	for i := 0; i < n; i++ {
		adjSet[i] = make(map[ReplicaID]bool)
		for _, j := range g.Neighbors(ReplicaID(i)) {
			adjSet[i][j] = true
		}
	}
	for c, rs := range clients {
		if len(rs) == 0 {
			return nil, fmt.Errorf("sharegraph: client %d has empty replica set", c)
		}
		seen := make(map[ReplicaID]bool, len(rs))
		for _, r := range rs {
			if r < 0 || int(r) >= n {
				return nil, fmt.Errorf("sharegraph: client %d names invalid replica %d", c, r)
			}
			if seen[r] {
				return nil, fmt.Errorf("sharegraph: client %d names replica %d twice", c, r)
			}
			seen[r] = true
		}
		a.clients[c] = append([]ReplicaID(nil), rs...)
		for _, p := range rs {
			for _, q := range rs {
				if p == q {
					continue
				}
				a.clientPair[Edge{p, q}] = true
				adjSet[p][q] = true
			}
		}
	}
	a.adj = make([][]ReplicaID, n)
	for i := 0; i < n; i++ {
		for j := range adjSet[i] {
			a.adj[i] = append(a.adj[i], j)
		}
		sort.Slice(a.adj[i], func(x, y int) bool { return a.adj[i][x] < a.adj[i][y] })
	}
	return a, nil
}

// NumClients returns C, the number of clients.
func (a *AugmentedGraph) NumClients() int { return len(a.clients) }

// ClientReplicas returns R_c for client c. The slice is a copy.
func (a *AugmentedGraph) ClientReplicas(c ClientID) []ReplicaID {
	return append([]ReplicaID(nil), a.clients[c]...)
}

// ClientPair reports whether some client can access both endpoints of e —
// the condition that adds e to Ê and relaxes the loop side conditions.
func (a *AugmentedGraph) ClientPair(e Edge) bool { return a.clientPair[e] }

// HasEdge reports whether e ∈ Ê (a share edge or a client edge).
func (a *AugmentedGraph) HasEdge(e Edge) bool {
	return a.G.HasEdge(e) || a.clientPair[e]
}

// Neighbors returns the Ĝ-neighbours of i (shared with the graph; do not
// modify).
func (a *AugmentedGraph) Neighbors(i ReplicaID) []ReplicaID { return a.adj[i] }

// ClientsFor returns the clients that may access replica i, sorted.
func (a *AugmentedGraph) ClientsFor(i ReplicaID) []ClientID {
	var out []ClientID
	for c, rs := range a.clients {
		for _, r := range rs {
			if r == i {
				out = append(out, ClientID(c))
				break
			}
		}
	}
	return out
}

// IsAugmentedIEJKLoop checks Definition 27 for a given simple loop in Ĝ:
// condition (i) is unchanged, while conditions (ii) and (iii) are
// alternatively satisfied when the two replicas of the hop are both
// accessible to a single client. Like IsIEJKLoop it runs on the graph's
// bitmask tables with pooled scratch, so it validates witnesses
// allocation-free inside differential and fuzz loops.
func (a *AugmentedGraph) IsAugmentedIEJKLoop(lp Loop) bool {
	return checkIEJKLoop(a.G, a, lp)
}

// BuildAugmentedTSGraph computes Ê_i per Definition 28: incident Ê edges
// and augmented-loop edges, intersected with the real edge set E. The
// result is returned as a TSGraph whose tracked edges all belong to E.
// Loop existence is decided by the exact engine (see search.go), through
// the same edge-outer builder as BuildTSGraph.
func (a *AugmentedGraph) BuildAugmentedTSGraph(i ReplicaID, opts LoopOptions) *TSGraph {
	return buildTSGraphs(NewAugmentedLoopSearcher(a), i, i+1, opts)[0]
}

// BuildAllAugmentedTSGraphs computes Ê_i for every replica, sharing one
// exact searcher across replicas.
func (a *AugmentedGraph) BuildAllAugmentedTSGraphs(opts LoopOptions) []*TSGraph {
	return buildTSGraphs(NewAugmentedLoopSearcher(a), 0, ReplicaID(a.G.r), opts)
}

// ClientTSEdges returns the edge universe of client c's timestamp µ_c:
// ∪_{i∈Rc} Ê_i, in deterministic order (Appendix E.5). graphs must be the
// per-replica augmented timestamp graphs of the same AugmentedGraph.
func (a *AugmentedGraph) ClientTSEdges(c ClientID, graphs []*TSGraph) []Edge {
	set := make(map[Edge]bool)
	for _, r := range a.clients[c] {
		for _, e := range graphs[r].Edges() {
			set[e] = true
		}
	}
	out := make([]Edge, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sortEdges(out)
	return out
}
