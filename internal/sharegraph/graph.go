package sharegraph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Graph is the share graph of Definition 3: vertices are replicas and a
// (bidirectional pair of) directed edge(s) exists between replicas i and j
// iff X_ij = X_i ∩ X_j is non-empty. The Graph also retains the underlying
// register placement, since the loop and hoop definitions are stated in
// terms of the register sets, not just adjacency.
type Graph struct {
	r       int
	stores  []RegisterSet // stores[i] = X_i
	shared  map[Edge]RegisterSet
	adj     [][]ReplicaID
	holders map[Register][]ReplicaID
	regs    []Register // all registers, sorted

	// Canonical bitmask tables for the loop machinery (see search.go),
	// built on first use so plain share-graph construction stays cheap.
	searchOnce sync.Once
	searchIdx  *searchIndex
}

// ErrNoReplicas is returned when a graph is constructed with zero replicas.
var ErrNoReplicas = errors.New("sharegraph: system must have at least one replica")

// New builds a share graph from the register placement: stores[i] lists the
// registers replicated at replica i (the paper's X_i). Duplicate names
// within one replica's list are collapsed.
func New(stores [][]Register) (*Graph, error) {
	if len(stores) == 0 {
		return nil, ErrNoReplicas
	}
	sets := make([]RegisterSet, len(stores))
	for i, regs := range stores {
		sets[i] = NewRegisterSet(regs...)
	}
	return NewFromSets(sets)
}

// NewFromSets is New for callers that already hold RegisterSets. The sets
// are cloned, so later mutation by the caller does not affect the graph.
func NewFromSets(stores []RegisterSet) (*Graph, error) {
	if len(stores) == 0 {
		return nil, ErrNoReplicas
	}
	g := &Graph{
		r:       len(stores),
		stores:  make([]RegisterSet, len(stores)),
		shared:  make(map[Edge]RegisterSet),
		adj:     make([][]ReplicaID, len(stores)),
		holders: make(map[Register][]ReplicaID),
	}
	for i, s := range stores {
		g.stores[i] = s.Clone()
	}
	for i := 0; i < g.r; i++ {
		for r := range g.stores[i] {
			g.holders[r] = append(g.holders[r], ReplicaID(i))
		}
		for j := i + 1; j < g.r; j++ {
			x := g.stores[i].Intersect(g.stores[j])
			if len(x) == 0 {
				continue
			}
			g.shared[Edge{ReplicaID(i), ReplicaID(j)}] = x
			g.shared[Edge{ReplicaID(j), ReplicaID(i)}] = x
			g.adj[i] = append(g.adj[i], ReplicaID(j))
			g.adj[j] = append(g.adj[j], ReplicaID(i))
		}
	}
	for _, ns := range g.adj {
		slices.Sort(ns)
	}
	for r := range g.holders {
		g.regs = append(g.regs, r)
		slices.Sort(g.holders[r])
	}
	slices.Sort(g.regs)
	return g, nil
}

// NumReplicas returns R, the number of replicas.
func (g *Graph) NumReplicas() int { return g.r }

// Registers returns every register placed on at least one replica, sorted.
func (g *Graph) Registers() []Register {
	out := make([]Register, len(g.regs))
	copy(out, g.regs)
	return out
}

// Stores returns X_i, the register set of replica i. The returned set is
// shared with the graph and must not be modified.
func (g *Graph) Stores(i ReplicaID) RegisterSet { return g.stores[i] }

// StoresRegister reports whether replica i stores register x.
func (g *Graph) StoresRegister(i ReplicaID, x Register) bool {
	return g.stores[i].Has(x)
}

// Holders returns C(x): the replicas storing register x, sorted.
func (g *Graph) Holders(x Register) []ReplicaID {
	hs := g.holders[x]
	out := make([]ReplicaID, len(hs))
	copy(out, hs)
	return out
}

// Shared returns X_ij = X_i ∩ X_j. The returned set is shared with the
// graph and must not be modified; it is nil when the edge does not exist.
func (g *Graph) Shared(i, j ReplicaID) RegisterSet {
	return g.shared[Edge{i, j}]
}

// HasEdge reports whether the directed edge e exists in the share graph
// (equivalently, whether its endpoints share at least one register).
func (g *Graph) HasEdge(e Edge) bool {
	if e.From == e.To {
		return false
	}
	_, ok := g.shared[e]
	return ok
}

// Neighbors returns the replicas adjacent to i in the share graph, sorted.
// The returned slice is shared with the graph and must not be modified.
func (g *Graph) Neighbors(i ReplicaID) []ReplicaID { return g.adj[i] }

// Degree returns N_i, the number of share-graph neighbours of replica i.
func (g *Graph) Degree(i ReplicaID) int { return len(g.adj[i]) }

// Edges returns every directed edge of the share graph in deterministic
// (From, To) order. Edges come in both directions per Definition 3.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.shared))
	for e := range g.shared {
		out = append(out, e)
	}
	sortEdges(out)
	return out
}

// NumUndirectedEdges returns the number of adjacent replica pairs.
func (g *Graph) NumUndirectedEdges() int { return len(g.shared) / 2 }

// Connected reports whether the share graph is connected (isolated
// replicas storing no shared registers make it disconnected).
func (g *Graph) Connected() bool {
	if g.r == 0 {
		return false
	}
	seen := make([]bool, g.r)
	stack := []ReplicaID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.r
}

// UpdateRecipients returns the replicas other than writer that store
// register x — the destinations of an update(writer, τ, x, v) message in
// the replica prototype (step 2(iii)). The result is sorted.
func (g *Graph) UpdateRecipients(writer ReplicaID, x Register) []ReplicaID {
	hs := g.holders[x]
	out := make([]ReplicaID, 0, len(hs))
	for _, h := range hs {
		if h != writer {
			out = append(out, h)
		}
	}
	return out
}

// String renders the placement and adjacency for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "share graph: %d replicas, %d undirected edges\n", g.r, g.NumUndirectedEdges())
	for i := 0; i < g.r; i++ {
		fmt.Fprintf(&b, "  X%d = %s\n", i, g.stores[i])
	}
	for i := 0; i < g.r; i++ {
		for _, j := range g.adj[i] {
			if j > ReplicaID(i) {
				fmt.Fprintf(&b, "  X%d%d = %s\n", i, j, g.shared[Edge{ReplicaID(i), j}])
			}
		}
	}
	return b.String()
}

// Validate performs internal consistency checks and is primarily useful in
// tests: share edges must be symmetric with identical labels, and every
// register must have at least one holder.
func (g *Graph) Validate() error {
	for e, x := range g.shared {
		y, ok := g.shared[e.Reverse()]
		if !ok {
			return fmt.Errorf("sharegraph: edge %v present but reverse missing", e)
		}
		if !x.Equal(y) {
			return fmt.Errorf("sharegraph: edge %v label differs from reverse", e)
		}
		if len(x) == 0 {
			return fmt.Errorf("sharegraph: edge %v has empty label", e)
		}
	}
	for r, hs := range g.holders {
		if len(hs) == 0 {
			return fmt.Errorf("sharegraph: register %q has no holders", r)
		}
	}
	return nil
}

func sortEdges(es []Edge) {
	slices.SortFunc(es, func(a, b Edge) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
}
