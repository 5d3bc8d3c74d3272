package optimize

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/timestamp"
)

// Route is a simple path of replicas relaying one broken register: it
// visits every holder of the register, consecutive route members share a
// virtual hop register, and updates travel hop by hop in both directions
// from the writer. The Figure 13 ring break is the special case of one
// register routed the long way around the cycle.
type Route []sharegraph.ReplicaID

// Placement is a candidate optimization of a base share graph: a set of
// "broken" registers, each replaced by a relay route. Breaking a register
// removes its share-graph edges (the holders no longer exchange it
// directly) and adds the route's hop edges instead — a placement search
// move that can only sparsify cycles, never invent replica pairs that
// share data, because routes are constrained to edges the remaining
// registers already support.
//
// The zero set of broken registers is the identity placement: the
// effective graph equals the base graph.
type Placement struct {
	Base   *sharegraph.Graph
	Broken map[sharegraph.Register]Route
}

// NewPlacement returns the identity placement over base.
func NewPlacement(base *sharegraph.Graph) *Placement {
	return &Placement{Base: base, Broken: make(map[sharegraph.Register]Route)}
}

// Clone deep-copies the placement (the base graph is shared, immutable).
func (p *Placement) Clone() *Placement {
	q := &Placement{Base: p.Base, Broken: make(map[sharegraph.Register]Route, len(p.Broken))}
	for x, r := range p.Broken {
		q.Broken[x] = append(Route(nil), r...)
	}
	return q
}

// hopRegister names the virtual register carrying relayed updates of x
// over route hop h (between route[h] and route[h+1]). The "__relay"
// prefix keeps hop registers out of oracle liveness accounting (they are
// protocol-internal, never client-accessible).
func hopRegister(x sharegraph.Register, h int) sharegraph.Register {
	return sharegraph.Register(fmt.Sprintf("__relay/%s/%d", x, h))
}

// EffectiveGraph materializes the share graph the timestamps run over:
// the base placement with every broken register removed and its route's
// hop registers added. Fails if the result is not a valid connected
// share graph.
func (p *Placement) EffectiveGraph() (*sharegraph.Graph, error) {
	n := p.Base.NumReplicas()
	stores := make([]sharegraph.RegisterSet, n)
	for i := 0; i < n; i++ {
		stores[i] = p.Base.Stores(sharegraph.ReplicaID(i)).Clone()
	}
	for x, route := range p.Broken {
		for i := range stores {
			delete(stores[i], x)
		}
		for h := 0; h+1 < len(route); h++ {
			vr := hopRegister(x, h)
			stores[route[h]].Add(vr)
			stores[route[h+1]].Add(vr)
		}
	}
	g, err := sharegraph.NewFromSets(stores)
	if err != nil {
		return nil, fmt.Errorf("optimize: effective graph: %w", err)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("optimize: effective graph is disconnected")
	}
	return g, nil
}

// Validate checks the placement invariants every search move must
// preserve: each broken register exists in the base graph with at least
// two holders; its route is a simple path of in-range replicas visiting
// every holder; no route hops over a pair whose only support was broken
// registers (each hop pair must still share at least one surviving
// register OR be adjacent via the hop registers themselves — the hop
// register it introduces always satisfies this, so the real constraint
// is the effective graph round-tripping through NewFromSets connected);
// and no route has a bypass (see safeRoute).
func (p *Placement) Validate() error {
	n := p.Base.NumReplicas()
	for x, route := range p.Broken {
		holders := p.Base.Holders(x)
		if len(holders) < 2 {
			return fmt.Errorf("optimize: broken register %q has %d holders; need at least 2", x, len(holders))
		}
		if len(route) < 2 {
			return fmt.Errorf("optimize: route for %q has %d members; need at least 2", x, len(route))
		}
		seen := make(map[sharegraph.ReplicaID]bool, len(route))
		for _, r := range route {
			if int(r) < 0 || int(r) >= n {
				return fmt.Errorf("optimize: route for %q visits out-of-range replica %d", x, r)
			}
			if seen[r] {
				return fmt.Errorf("optimize: route for %q revisits replica %d — not a simple path", x, r)
			}
			seen[r] = true
		}
		for _, h := range holders {
			if !seen[h] {
				return fmt.Errorf("optimize: route for %q skips holder %d", x, h)
			}
		}
	}
	eff, err := p.EffectiveGraph()
	if err != nil {
		return err
	}
	for _, x := range p.BrokenRegisters() {
		if err := safeRoute(eff, p.Broken[x]); err != nil {
			return fmt.Errorf("optimize: route for %q: %w", x, err)
		}
	}
	return nil
}

// safeRoute requires every interior member route[i] to separate, in the
// effective graph, the members before it from the members after it.
//
// That is what makes a relay causally safe. Let holder route[a] write x
// (hop write h) and let any causal chain of effective-graph messages
// leave route[a] afterwards for holder route[b], b > a (the other
// direction is symmetric). Separation at route[a+1] forces the chain
// through route[a+1]; the message it arrives on has h in its causal
// past, so route[a+1] applies h first and issues its forward f in the
// same step, putting f in the past of everything it sends on. Induction
// over route[a+2], … carries the forward to route[b]'s last hop, whose
// hop register route[b] stores, so it materializes x's value before
// the chain's message. A chain starting at a holder that materialized
// the value instead of writing it crosses, by the same separation, every
// member between it and the target, one of which already forwarded the
// value toward the target.
//
// Without separation a chain can go around the route: in the unsafe
// placements the search used to return on dense random graphs, a
// holder applied a later write of x's writer, or a write that read x,
// before the relay reached it.
func safeRoute(eff *sharegraph.Graph, route Route) error {
	n := eff.NumReplicas()
	for i := 1; i+1 < len(route); i++ {
		cut := route[i]
		seen := make([]bool, n)
		seen[cut] = true
		queue := append([]sharegraph.ReplicaID(nil), route[:i]...)
		for _, r := range queue {
			seen[r] = true
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range eff.Neighbors(cur) {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		for _, r := range route[i+1:] {
			if seen[r] {
				return fmt.Errorf("member %d is reachable from the members before %d without passing it", r, cut)
			}
		}
	}
	return nil
}

// buildRoute constructs a relay route for register x under the current
// broken set: starting from one holder, it repeatedly extends the path
// to the nearest not-yet-visited holder by BFS over the support graph
// (replica pairs still sharing at least one unbroken register other
// than x), never revisiting a vertex. Returns false when no simple
// holder-visiting path exists — the move is invalid.
//
// On a ring this reproduces Figure 13: holders 0 and n−1 share only the
// broken register, so the path runs the long way around the cycle.
func (p *Placement) buildRoute(x sharegraph.Register) (Route, bool) {
	holders := p.Base.Holders(x)
	if len(holders) < 2 {
		return nil, false
	}
	n := p.Base.NumReplicas()
	support := func(a, b sharegraph.ReplicaID) bool {
		for r := range p.Base.Shared(a, b) {
			if r != x && p.Broken[r] == nil {
				return true
			}
		}
		return false
	}
	remaining := make(map[sharegraph.ReplicaID]bool, len(holders))
	for _, h := range holders {
		remaining[h] = true
	}
	route := Route{holders[0]}
	used := make([]bool, n)
	used[holders[0]] = true
	delete(remaining, holders[0])
	for len(remaining) > 0 {
		// BFS from the route's end to the nearest remaining holder,
		// through unused vertices only (keeps the path simple).
		start := route[len(route)-1]
		const unvisited = -2
		parent := make([]int, n)
		for i := range parent {
			parent[i] = unvisited
		}
		parent[start] = -1
		queue := []sharegraph.ReplicaID{start}
		found := sharegraph.ReplicaID(-1)
		for len(queue) > 0 && found < 0 {
			cur := queue[0]
			queue = queue[1:]
			for b := 0; b < n && found < 0; b++ {
				rb := sharegraph.ReplicaID(b)
				if parent[b] != unvisited || (used[b] && rb != start) || !support(cur, rb) {
					continue
				}
				parent[b] = int(cur)
				if remaining[rb] {
					found = rb
				} else {
					queue = append(queue, rb)
				}
			}
		}
		if found < 0 {
			return nil, false
		}
		// Unwind the BFS parents into the path extension.
		var ext Route
		for at := found; parent[at] >= 0; at = sharegraph.ReplicaID(parent[at]) {
			ext = append(ext, at)
		}
		for i := len(ext) - 1; i >= 0; i-- {
			route = append(route, ext[i])
			used[ext[i]] = true
		}
		delete(remaining, found)
	}
	return route, true
}

// toggle is the search's move: a copy of p with x un-broken if it is
// broken, else broken along buildRoute's route. It fails when there is no
// route or the copy does not validate: breaking or un-breaking one
// register can open a bypass around another register's route.
func (p *Placement) toggle(x sharegraph.Register) (*Placement, bool) {
	q := p.Clone()
	if _, broken := p.Broken[x]; broken {
		delete(q.Broken, x)
	} else {
		route, ok := p.buildRoute(x)
		if !ok {
			return nil, false
		}
		q.Broken[x] = route
	}
	if q.Validate() != nil {
		return nil, false
	}
	return q, true
}

// BrokenRegisters returns the broken set in sorted order (deterministic
// iteration for printing and scoring).
func (p *Placement) BrokenRegisters() []sharegraph.Register {
	out := make([]sharegraph.Register, 0, len(p.Broken))
	for x := range p.Broken {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------------
// Relay protocol over a placement

// PlacementProtocol is the edge-indexed clock over a placement's
// effective graph with a relaying router: a write to a broken register
// leaves its writer as hop messages in both directions along the route,
// every holder on the route materializes the value, and interior members
// forward away from the sender. Reads and client writes are accepted
// exactly where the BASE graph stores the register, so the oracle's model
// of the placement never changes.
//
// The timestamps order hop writes like any other write of the effective
// graph, which is all they know about: a relayed value is causally safe
// only where nothing a holder does after materializing it can reach
// another holder of the same register ahead of the relay, as on a broken
// ring, whose effective graph is the route itself. Validate enforces this
// through safeRoute, and Protocol refuses placements that fail it.
type PlacementProtocol struct {
	core.Prototype
	eff   *sharegraph.Graph
	space *timestamp.Space
}

// Protocol builds the relay protocol for the placement. The name shows
// up in diagnostics and benchmarks.
func (p *Placement) Protocol(name string) (*PlacementProtocol, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	eff, err := p.EffectiveGraph()
	if err != nil {
		return nil, err
	}
	space, err := timestamp.NewSpace(eff, sharegraph.BuildAllTSGraphs(eff, sharegraph.LoopOptions{}))
	if err != nil {
		return nil, fmt.Errorf("optimize: placement space: %w", err)
	}
	share := core.ShareRoutes(eff, nil, false)
	routes := make([]core.Router, eff.NumReplicas())
	for i := range routes {
		routes[i] = newRelayRoute(p, share, sharegraph.ReplicaID(i))
	}
	proto := core.NewPrototype(name, len(routes), core.SpaceClocks(space),
		func(i sharegraph.ReplicaID) core.Router { return routes[i] })
	return &PlacementProtocol{Prototype: *proto, eff: eff, space: space}, nil
}

// Effective returns the share graph the timestamps run over.
func (p *PlacementProtocol) Effective() *sharegraph.Graph { return p.eff }

// Space exposes the timestamp space (size accounting, diagnostics).
func (p *PlacementProtocol) Space() *timestamp.Space { return p.space }

// delivery is what an applied hop message becomes at one route member.
type delivery struct {
	reg    sharegraph.Register // the broken register relayed
	holder bool                // this member stores it: materialize
	fwd    []core.Hop          // the next hop away from the sender, if any
}

// relayRoute is one replica's core.Router under a placement: unbroken
// registers travel as in the effective share graph, broken ones as writes
// to their routes' hop registers. Immutable once built, so every node the
// protocol builds for the replica shares it.
type relayRoute struct {
	core.Router // over the effective graph
	base        *sharegraph.Graph
	id          sharegraph.ReplicaID
	writes      map[sharegraph.Register][]core.Hop // broken register → first hops
	hops        map[sharegraph.Register]delivery   // hop register → delivery
}

func newRelayRoute(p *Placement, share func(sharegraph.ReplicaID) core.Router, id sharegraph.ReplicaID) *relayRoute {
	r := &relayRoute{
		Router: share(id), base: p.Base, id: id,
		writes: make(map[sharegraph.Register][]core.Hop),
		hops:   make(map[sharegraph.Register]delivery),
	}
	for x, route := range p.Broken {
		for pos, member := range route {
			if member != id {
				continue
			}
			// Hop h connects route[h] and route[h+1]; this member sits
			// on hops pos−1 (to its left) and pos (to its right).
			var left, right []core.Hop
			if pos > 0 {
				left = []core.Hop{{Reg: hopRegister(x, pos-1), To: []sharegraph.ReplicaID{route[pos-1]}}}
			}
			if pos+1 < len(route) {
				right = []core.Hop{{Reg: hopRegister(x, pos), To: []sharegraph.ReplicaID{route[pos+1]}}}
			}
			holder := p.Base.StoresRegister(id, x)
			if holder {
				r.writes[x] = append(append([]core.Hop(nil), left...), right...)
			}
			// A message on the left hop is moving right, and vice versa.
			if left != nil {
				r.hops[left[0].Reg] = delivery{reg: x, holder: holder, fwd: right}
			}
			if right != nil {
				r.hops[right[0].Reg] = delivery{reg: x, holder: holder, fwd: left}
			}
		}
	}
	return r
}

func (r *relayRoute) Stores(x sharegraph.Register) bool { return r.base.StoresRegister(r.id, x) }

func (r *relayRoute) Fanout(x sharegraph.Register) []core.Hop {
	if hops, broken := r.writes[x]; broken {
		return hops
	}
	return r.Router.Fanout(x)
}

func (r *relayRoute) Deliver(reg sharegraph.Register) (sharegraph.Register, bool, []core.Hop) {
	if d, isHop := r.hops[reg]; isHop {
		return d.reg, d.holder, d.fwd
	}
	return reg, true, nil
}
