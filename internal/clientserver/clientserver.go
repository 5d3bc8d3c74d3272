// Package clientserver implements the client-server architecture of
// Section 6 and Appendix E of Xiang & Vaidya (PODC 2019) as what the paper
// says it is: the Section 2.1 replica prototype run over the augmented
// timestamp graphs Ê_i, plus a thin client layer.
//
// A Server is one node of core.Prototype — the same node every peer-to-peer
// protocol runs — built from timestamp.NewSpace(Aug.G, Ê) and the share
// graph's routes. The node stores the registers, buffers inter-replica
// updates and applies them. Appendix E's server differs from the
// prototype in three places, and each one is the prototype's own operation
// over Ê_i:
//
//   - J3 is predicate J: τ[e_ki] = T[e_ki] − 1 and τ[e_ji] ≥ T[e_ji] on the
//     other edges into i that Ê_i and Ê_k both track.
//   - merge3 is merge: the element-wise maximum over Ê_i ∩ Ê_k.
//   - advance for a client write is "raise τ by the client's µ_c, then
//     advance": Appendix E increments e_ik for x ∈ X_ik and takes max(τ, µ)
//     elsewhere, and on the incremented edges the max is a no-op because
//     only replica i ever increments them, so no µ can be ahead of τ_i. The
//     raise cannot move a gate either: J2 admitted the write only once τ
//     dominated µ on every edge into i, which is where all gates live.
//
// The client layer is what is left: requests buffered behind J1/J2,
// the µ_c raise, responses carrying τ_i, and clients merging them into µ_c
// over ∪_{i∈Rc} Ê_i (merge1/merge2). Every alignment between a client's
// edge order and a replica's is computed once per System.
//
// The servers are hosted like every other node, in a sim.Space: its
// locks, oracle, Meta pool, delivery and state capture are theirs. A
// request is a Space.Do on the server; a delivery that applies updates
// ends with the server's Settle, which serves the buffered requests the
// applies unblocked. LiveSystem is a sim.Cluster of servers (the engine,
// backpressure, metrics and the fault layer come with it); Run is a
// deterministic scheduler loop over a Space, whose events are client
// requests and responses besides updates.
//
// Clients accessing multiple replicas propagate causal dependencies even
// between replicas sharing no registers; the augmented share graph
// (Definition 16) adds edges for exactly those paths, and the augmented
// (i, e_jk)-loops (Definition 27) determine the extra counters replicas
// must carry. The package's tests demonstrate both directions: with
// augmented timestamp graphs the system satisfies Definition 26, and with
// plain Definition 5 graphs a client bridging two disconnected replicas
// produces a safety violation.
package clientserver

import (
	"fmt"
	"sync"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/timestamp"
)

// ---------------------------------------------------------------------------
// Vector freelist
//
// The client layer clones timestamps constantly: every request carries
// µ_c and every response carries τ_i. Those vectors have a clear single
// owner and a clear end of life (the receiver merges them and is done),
// so instead of leaving a clone per message to the garbage collector they
// cycle through a per-System freelist: cloneVec takes a recycled vector,
// putVec returns one. Hanging the freelist off System —
// rather than a process-wide global — keeps vector lifetimes and mutex
// contention confined to one deployment: independent live systems and
// benchmarks in the same process never serialize on each other's clones,
// and one system's large vectors cannot pin memory for another's.

const maxVecFree = 1024

// getVec returns a zeroed vector of length n, recycled when possible.
func (s *System) getVec(n int) timestamp.Vec {
	s.vecMu.Lock()
	for i := len(s.vecFree) - 1; i >= 0; i-- {
		if cap(s.vecFree[i]) >= n {
			v := s.vecFree[i][:n]
			s.vecFree[i] = s.vecFree[len(s.vecFree)-1]
			s.vecFree = s.vecFree[:len(s.vecFree)-1]
			s.vecMu.Unlock()
			for j := range v {
				v[j] = 0
			}
			return v
		}
	}
	s.vecMu.Unlock()
	return make(timestamp.Vec, n)
}

// cloneVec copies src into a recycled vector.
func (s *System) cloneVec(src timestamp.Vec) timestamp.Vec {
	v := s.getVec(len(src))
	copy(v, src)
	return v
}

// putVec recycles a vector whose owner is done with it. Nil is allowed.
func (s *System) putVec(v timestamp.Vec) {
	if v == nil {
		return
	}
	s.vecMu.Lock()
	if len(s.vecFree) < maxVecFree {
		s.vecFree = append(s.vecFree, v)
	}
	s.vecMu.Unlock()
}

// System holds the structure shared by all servers and clients: the
// augmented graph, every replica's augmented timestamp graph Ê_i, every
// client's timestamp universe ∪_{i∈Rc} Ê_i, the prototype instantiated
// over the Ê_i and the client↔replica alignments — all immutable after
// construction — plus the vector freelist its servers and clients share.
type System struct {
	Aug *sharegraph.AugmentedGraph
	// ReplicaGraphs[i] indexes replica i's timestamp τ_i.
	ReplicaGraphs []*sharegraph.TSGraph
	// ClientGraphs[c] indexes client c's timestamp µ_c.
	ClientGraphs []*sharegraph.TSGraph

	// proto builds the servers' nodes; in-package differential tests swap
	// in its Rescan() twin.
	proto *core.Prototype
	// views[c][i] aligns µ_c with τ_i for every i ∈ R_c.
	views [][]clientView

	vecMu   sync.Mutex
	vecFree []timestamp.Vec
}

// clientView is everything client c and a replica i ∈ R_c need of each
// other's edge orders, computed once.
type clientView struct {
	ok bool // i ∈ R_c
	// raise aligns Ê_i with c's universe as (τ_i, µ_c) positions, incoming
	// is its edges into i (what J1/J2 read), absorb is raise the other way
	// round (merge1/merge2).
	raise, incoming, absorb timestamp.Alignment
}

// NewSystem computes Ê_i per Definition 28 and the client universes.
func NewSystem(aug *sharegraph.AugmentedGraph) *System {
	graphs := aug.BuildAllAugmentedTSGraphs(sharegraph.LoopOptions{})
	return newSystemWithGraphs(aug, graphs)
}

// NewSystemWithPlainGraphs builds the system over plain Definition 5
// timestamp graphs, ignoring client edges — deliberately too weak whenever
// a client bridges replicas, and used by tests to demonstrate that the
// augmentation is necessary.
func NewSystemWithPlainGraphs(aug *sharegraph.AugmentedGraph) *System {
	graphs := sharegraph.BuildAllTSGraphs(aug.G, sharegraph.LoopOptions{})
	return newSystemWithGraphs(aug, graphs)
}

func newSystemWithGraphs(aug *sharegraph.AugmentedGraph, graphs []*sharegraph.TSGraph) *System {
	space, err := timestamp.NewSpace(aug.G, graphs)
	if err != nil {
		panic(err) // graphs was built just above, one per replica in order
	}
	n := aug.G.NumReplicas()
	s := &System{
		Aug: aug, ReplicaGraphs: graphs,
		proto: core.NewPrototype("client-server", n, core.SpaceClocks(space), core.ShareRoutes(aug.G, nil, false)),
	}
	for c := 0; c < aug.NumClients(); c++ {
		edges := aug.ClientTSEdges(sharegraph.ClientID(c), graphs)
		// The owner field is unused for client universes; store the client
		// id for diagnostics.
		cidx := sharegraph.NewTSGraphFromEdges(sharegraph.ReplicaID(c), edges)
		s.ClientGraphs = append(s.ClientGraphs, cidx)
		views := make([]clientView, n)
		for _, i := range aug.ClientReplicas(sharegraph.ClientID(c)) {
			raise := timestamp.Align(graphs[i], cidx)
			views[i] = clientView{
				ok: true, raise: raise, absorb: timestamp.Align(cidx, graphs[i]),
				incoming: raise.Keep(graphs[i], func(e sharegraph.Edge) bool { return e.To == i }),
			}
		}
		s.views = append(s.views, views)
	}
	return s
}

// ---------------------------------------------------------------------------
// Server

// Server is one replica of the client-server architecture (Appendix E.1):
// the prototype node over Ê_i, which stores the registers, buffers
// inter-replica updates behind J3 and merges them, plus the client layer —
// requests buffered behind J1/J2, the µ_c raise before a write, responses
// carrying τ_i. A sim.Space hosts it like any other node: the Space
// delivers its updates, audits its applies and then calls Settle under
// the same lock. Not safe for concurrent use.
type Server struct {
	core.Layered
	dep  *deployment
	diag *core.Diag

	pendingRequests []Request
}

// deployment is what one host's servers share, and the core.Protocol the
// host's sim.Space builds them with: the System, the oracle (nil runs
// unaudited; told every accepted request, in the order the servers
// accept them, and naming every client write) and respond, which takes
// every response under the serving replica's lock.
type deployment struct {
	sys     *System
	tracker *causality.Tracker // the Space's, set once the Space is built
	respond func(Response)
}

// Name implements core.Protocol.
func (d *deployment) Name() string { return d.sys.proto.Name() }

// NewNodes implements core.Protocol: one Server per replica, each
// counting its own ingest drops (StaleDrops reports them; none is
// logged).
func (d *deployment) NewNodes() ([]core.Node, error) {
	nodes := make([]core.Node, len(d.sys.ReplicaGraphs))
	for i := range nodes {
		diag := core.NewDiag(func(string, ...any) {}, nil)
		nodes[i] = &Server{Layered: d.sys.proto.NewNode(sharegraph.ReplicaID(i), diag), dep: d, diag: diag}
	}
	return nodes, nil
}

// newSpace hosts sys's servers in a sim.Space, audited if audit is set,
// whose responses go to respond. It also returns the servers, for a
// single-threaded host to read.
func newSpace(sys *System, audit bool, respond func(Response)) (*sim.Space, []*Server, error) {
	d := &deployment{sys: sys, respond: respond}
	sp, err := sim.NewSpace(sys.Aug.G, d, audit, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("clientserver: %w", err)
	}
	d.tracker = sp.Tracker()
	servers := make([]*Server, len(sys.ReplicaGraphs))
	for r := range servers {
		// Cannot fail: r is in range and a new Space has no replica down.
		_ = sp.Do(sharegraph.ReplicaID(r), func(n core.Node) error { servers[r] = n.(*Server); return nil })
	}
	return sp, servers, nil
}

// Request is a client read or write request carrying the client's
// timestamp (the paper's read(x, c, µc) / write(x, v, c, µc)).
type Request struct {
	Client  sharegraph.ClientID
	Replica sharegraph.ReplicaID
	Reg     sharegraph.Register
	Val     core.Value
	IsRead  bool
	Mu      timestamp.Vec // client timestamp µ_c at send time
}

// Response is the replica's reply: the read value (for reads) and the
// replica's timestamp τ_i at acceptance. Tau is recycled by the client
// that absorbs it.
type Response struct {
	Client  sharegraph.ClientID
	Replica sharegraph.ReplicaID
	Reg     sharegraph.Register
	Val     core.Value
	IsRead  bool
	Tau     timestamp.Vec
}

// Timestamp returns a copy of τ_i.
func (s *Server) Timestamp() timestamp.Vec { return s.Tau().Clone() }

// PendingUpdates returns the number of buffered inter-replica updates
// still awaiting delivery (core.LivePendingCounter).
func (s *Server) PendingUpdates() int { return s.LivePending() }

// PendingRequests returns the number of buffered client requests.
func (s *Server) PendingRequests() int { return len(s.pendingRequests) }

// PendingCount counts everything the replica holds unserved: the node's
// buffered updates and the buffered client requests, so a host's parked
// count covers both.
func (s *Server) PendingCount() int { return s.Layered.PendingCount() + len(s.pendingRequests) }

// StaleDrops returns the number of received update messages J3 can never
// admit: duplicates, stale replays and updates from untracked senders,
// which the node parks dead, plus the malformed envelopes (corrupt or
// wrong-length timestamp, unknown sender) dropped at ingest.
func (s *Server) StaleDrops() int {
	return s.Layered.PendingCount() - s.LivePending() + int(s.diag.Drops())
}

// HandleRequest ingests a client request, emitting the updates a write
// produces into out. If the request's predicate holds it is served
// immediately and its response goes to the host; otherwise it is
// buffered until later update applications unblock it (Settle). The
// server takes ownership of req.Mu. Returns false — without consuming
// req — if the request does not belong here: addressed to a different
// replica, from an unknown client or one that may not access this
// replica, naming a register not stored here, or carrying a µ of the
// wrong length.
func (s *Server) HandleRequest(req Request, out core.Sink) bool {
	sys, id := s.dep.sys, s.ID()
	if req.Replica != id || req.Client < 0 || int(req.Client) >= len(sys.views) ||
		!sys.views[req.Client][id].ok || len(req.Mu) != sys.ClientGraphs[req.Client].Len() ||
		!sys.Aug.G.StoresRegister(id, req.Reg) {
		return false
	}
	if !s.requestReady(req) {
		s.pendingRequests = append(s.pendingRequests, req)
		return true
	}
	s.serve(req, out)
	return true
}

// requestReady implements J1 = J2: τ[e_ji] ≥ µ[e_ji] for every edge into
// this replica tracked by Ê_i.
func (s *Server) requestReady(req Request) bool {
	return s.dep.sys.views[req.Client][s.ID()].incoming.Dominates(s.Tau(), req.Mu)
}

// serve executes an accepted request (predicate already true), recycling
// the request's µ once it is consumed. A write is the prototype's, after
// τ is raised by µ; J2 just checked that τ dominates µ on every edge into
// i, so the raise moves no gate (see the package comment).
func (s *Server) serve(req Request, out core.Sink) {
	d, id := s.dep, s.ID()
	if d.tracker != nil {
		d.tracker.OnClientAccess(req.Client, id)
	}
	val := req.Val
	if req.IsRead {
		val, _ = s.Read(req.Reg)
	} else {
		var uid causality.UpdateID
		if d.tracker != nil {
			uid = d.tracker.OnClientWrite(req.Client, id, req.Reg)
		}
		s.RaiseTau(d.sys.views[req.Client][id].raise, req.Mu)
		if err := s.HandleWrite(req.Reg, val, uid, out); err != nil {
			panic(err) // HandleRequest admits only registers stored here
		}
	}
	d.sys.putVec(req.Mu)
	d.respond(Response{
		Client: req.Client, Replica: id, Reg: req.Reg,
		Val: val, IsRead: req.IsRead, Tau: d.sys.cloneVec(s.Tau()),
	})
}

// Settle serves the buffered requests that the applies just reported to
// the oracle unblocked; the Space calls it after every delivery that
// applied something, under the same lock. Serving a request never
// unblocks an update — a write moves only this replica's outgoing
// edges, J3 reads incoming ones — so "drain updates, then requests,
// once" is the fixpoint.
func (s *Server) Settle(out core.Sink) {
	kept := s.pendingRequests[:0]
	for _, req := range s.pendingRequests {
		if s.requestReady(req) {
			s.serve(req, out)
		} else {
			kept = append(kept, req)
		}
	}
	s.pendingRequests = kept
}

// ---------------------------------------------------------------------------
// Client

// Client maintains µ_c and issues requests. Not safe for concurrent use.
type Client struct {
	sys      *System
	id       sharegraph.ClientID
	cidx     *sharegraph.TSGraph
	µ        timestamp.Vec
	replicas []sharegraph.ReplicaID // R_c, cached: the graph is immutable
}

// NewClient builds client c.
func NewClient(sys *System, c sharegraph.ClientID) *Client {
	cidx := sys.ClientGraphs[c]
	return &Client{
		sys: sys, id: c, cidx: cidx,
		µ:        make(timestamp.Vec, cidx.Len()),
		replicas: sys.Aug.ClientReplicas(c),
	}
}

// ID returns the client id.
func (c *Client) ID() sharegraph.ClientID { return c.id }

// MetadataEntries returns |∪_{i∈Rc} Ê_i|, the client timestamp length.
func (c *Client) MetadataEntries() int { return c.cidx.Len() }

// Timestamp returns a copy of µ_c.
func (c *Client) Timestamp() timestamp.Vec { return c.µ.Clone() }

// PickReplica chooses a replica in R_c storing x (the lowest-numbered, for
// determinism). ok is false if the client cannot access x at all.
func (c *Client) PickReplica(x sharegraph.Register) (sharegraph.ReplicaID, bool) {
	for _, r := range c.replicas {
		if c.sys.Aug.G.StoresRegister(r, x) {
			return r, true
		}
	}
	return 0, false
}

// NewRequest builds a read or write request for register x carrying the
// current µ_c.
func (c *Client) NewRequest(x sharegraph.Register, v core.Value, isRead bool) (Request, error) {
	r, ok := c.PickReplica(x)
	if !ok {
		return Request{}, fmt.Errorf("clientserver: client %d cannot access register %q", c.id, x)
	}
	return Request{
		Client: c.id, Replica: r, Reg: x, Val: v, IsRead: isRead, Mu: c.sys.cloneVec(c.µ),
	}, nil
}

// AbsorbResponse implements merge1 = merge2: µ_c takes the elementwise max
// with τ over Ê_i, unchanged elsewhere. The response's Tau is consumed —
// recycled into the vector freelist — so callers must not retain it.
func (c *Client) AbsorbResponse(resp Response) {
	c.sys.views[c.id][resp.Replica].absorb.MergeInto(c.µ, resp.Tau)
	c.sys.putVec(resp.Tau)
}
