package optimize

import (
	"fmt"

	"repro/internal/sharegraph"
)

// RingBreak is the Figure 13 optimization: on an n-replica ring, direct
// communication between replicas 0 and n−1 is disallowed, turning the
// share graph into a path. It is the placement over Ring(n) with the one
// register those two share broken and routed the long way round: updates
// to it are relayed hop by hop as writes to virtual registers (never
// client accessed), with the final hop materializing the value.
// Per-replica timestamps shrink from 2n counters (every replica tracks the
// whole cycle) to at most 4 (a path has no loops); the relayed register
// pays n−1 message hops of latency.
type RingBreak struct {
	PlacementProtocol
	base   *sharegraph.Graph
	broken sharegraph.Register
}

// BreakRing builds the broken-ring protocol over sharegraph.Ring(n). The
// register shared by replicas 0 and n−1 ("ring<n-1>") becomes the relayed
// register.
func BreakRing(n int) (*RingBreak, error) {
	if n < 3 {
		return nil, fmt.Errorf("optimize: ring break needs n >= 3, got %d", n)
	}
	place := NewPlacement(sharegraph.Ring(n))
	broken := sharegraph.Register(fmt.Sprintf("ring%d", n-1))
	route, ok := place.buildRoute(broken)
	if !ok {
		return nil, fmt.Errorf("optimize: no relay route for %q", broken)
	}
	place.Broken[broken] = route
	pp, err := place.Protocol("ring-break")
	if err != nil {
		return nil, err
	}
	return &RingBreak{PlacementProtocol: *pp, base: place.Base, broken: broken}, nil
}

// Base returns the original ring share graph (the oracle's view).
func (p *RingBreak) Base() *sharegraph.Graph { return p.base }

// Line returns the broken (path) share graph the timestamps run over.
func (p *RingBreak) Line() *sharegraph.Graph { return p.Effective() }

// Broken returns the relayed register.
func (p *RingBreak) Broken() sharegraph.Register { return p.broken }
