package core

import (
	"fmt"

	"repro/internal/sharegraph"
	"repro/internal/timestamp"
)

// EdgeIndexed is the paper's algorithm (Section 3.3): the prototype with a
// vector timestamp indexed by the edges of each replica's timestamp graph
// G_i. advance, merge and predicate J are timestamp.Space's.
type EdgeIndexed struct {
	Prototype
	space *timestamp.Space
}

// NewEdgeIndexed builds the protocol with timestamp graphs computed per
// Definition 5 (exhaustive loop search).
func NewEdgeIndexed(g *sharegraph.Graph) (*EdgeIndexed, error) {
	return NewEdgeIndexedWithGraphs(g, sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{}), "edge-indexed")
}

// NewEdgeIndexedNaive builds the protocol with the reference full-buffer
// rescan drain instead of the indexed one. It exists to differentially
// test and benchmark the drains: both must produce identical applies,
// messages and oracle verdicts on every schedule.
func NewEdgeIndexedNaive(g *sharegraph.Graph) (*EdgeIndexed, error) {
	p, err := NewEdgeIndexedWithGraphs(g, sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{}), "edge-indexed-naive")
	if err != nil {
		return nil, err
	}
	return AsNaive(p), nil
}

// NewEdgeIndexedWithGraphs builds the protocol over caller-supplied
// timestamp graphs. The Appendix D optimizations (dummy registers, l-hop
// truncation) and the Theorem 8 necessity experiments use this to run the
// same machinery over modified edge sets.
func NewEdgeIndexedWithGraphs(g *sharegraph.Graph, graphs []*sharegraph.TSGraph, name string) (*EdgeIndexed, error) {
	return newEdgeIndexed(g, graphs, nil, name)
}

// NewEdgeIndexedRouted builds the protocol over an EFFECTIVE share graph
// that may contain dummy register copies (Section 5): effective describes
// where registers live for timestamp and routing purposes, while realStore
// says which copies are genuine. Writes fan out data messages to genuine
// holders and metadata-only messages to dummy holders; reads and client
// writes are only accepted at genuine holders.
func NewEdgeIndexedRouted(effective *sharegraph.Graph, realStore func(sharegraph.ReplicaID, sharegraph.Register) bool, name string) (*EdgeIndexed, error) {
	return newEdgeIndexed(effective, sharegraph.BuildAllTSGraphs(effective, sharegraph.LoopOptions{}), realStore, name)
}

func newEdgeIndexed(g *sharegraph.Graph, graphs []*sharegraph.TSGraph, realStore func(sharegraph.ReplicaID, sharegraph.Register) bool, name string) (*EdgeIndexed, error) {
	space, err := timestamp.NewSpace(g, graphs)
	if err != nil {
		return nil, fmt.Errorf("edge-indexed: %w", err)
	}
	proto := NewPrototype(name, g.NumReplicas(), SpaceClocks(space), ShareRoutes(g, realStore, false))
	return &EdgeIndexed{Prototype: *proto, space: space}, nil
}

// AsNaive returns a copy of p that builds nodes with the reference
// rescan drain; differential tests use it to compare drains over
// identical graphs, routing and naming-independent measurements.
func AsNaive(p *EdgeIndexed) *EdgeIndexed {
	return &EdgeIndexed{Prototype: *p.Rescan(), space: p.space}
}

// Space exposes the timestamp space (diagnostics and size accounting).
func (p *EdgeIndexed) Space() *timestamp.Space { return p.space }

// spaceClock is replica i's view of a timestamp.Space: the Section 3.3
// clock. Predicate J's first clause reads e_{ki}, which every update k
// sends to i advances by exactly one, and merge cannot move any other
// incoming-edge counter (J required τ to already dominate them), so the
// space's precomputed recheck set is all an apply can unblock.
type spaceClock struct {
	s       *timestamp.Space
	i       sharegraph.ReplicaID
	senders []Sender
}

// SpaceClocks returns the edge-indexed clocks over s, one per replica. A
// sender k is untracked at i when e_{ki} is missing from either side's
// timestamp graph (truncated graphs, or k = i).
func SpaceClocks(s *timestamp.Space) func(sharegraph.ReplicaID) Clock {
	clocks := make([]spaceClock, s.NumReplicas())
	for i := range clocks {
		c := &clocks[i]
		c.s, c.i, c.senders = s, sharegraph.ReplicaID(i), make([]Sender, len(clocks))
		for k := range c.senders {
			from := &c.senders[k]
			from.Len = s.Len(sharegraph.ReplicaID(k))
			from.SeqPos, from.Tracked = s.SeqPos(c.i, sharegraph.ReplicaID(k))
			from.GatePos, _ = s.GatePos(c.i, sharegraph.ReplicaID(k))
		}
	}
	return func(i sharegraph.ReplicaID) Clock { return &clocks[i] }
}

func (c *spaceClock) Zero() timestamp.Vec { return c.s.Zero(c.i) }
func (c *spaceClock) Entries() int        { return c.s.Len(c.i) }
func (c *spaceClock) Senders() []Sender   { return c.senders }

func (c *spaceClock) Advance(τ timestamp.Vec, x sharegraph.Register, _ []sharegraph.ReplicaID) {
	c.s.AdvanceInPlace(c.i, τ, x)
}

func (c *spaceClock) Meta(τ timestamp.Vec, _ sharegraph.ReplicaID) (timestamp.Vec, bool) {
	return τ, true
}

func (c *spaceClock) Deliverable(τ timestamp.Vec, k sharegraph.ReplicaID, T timestamp.Vec) bool {
	return c.s.Deliverable(c.i, τ, k, T)
}

func (c *spaceClock) Merge(τ timestamp.Vec, k sharegraph.ReplicaID, T timestamp.Vec) {
	c.s.MergeInPlace(c.i, τ, k, T)
}

func (c *spaceClock) Recheck(k sharegraph.ReplicaID) []sharegraph.ReplicaID {
	return c.s.RecheckOnApply(c.i, k)
}
