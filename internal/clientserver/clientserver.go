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
	"repro/internal/timestamp"
	"repro/internal/transport"
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
// construction — plus the deployment's freelists.
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
	// meta recycles the encoded timestamps of in-flight updates: Outcome
	// copies an emitted Meta through it, HandleUpdate returns it.
	meta transport.BytePool
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
// one node of the prototype over Ê_i, which stores the registers, buffers
// inter-replica updates behind J3 and merges them, plus the client layer —
// requests buffered behind J1/J2, the µ_c raise before a write, responses
// carrying τ_i. Not safe for concurrent use.
type Server struct {
	sys  *System
	id   sharegraph.ReplicaID
	node core.Layered
	diag *core.Diag
	// tracker, when a runtime sets it, is told every apply and every
	// accepted request in the order they happen here, and names the
	// writes; nil runs unaudited.
	tracker *causality.Tracker

	pendingRequests []Request
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
// replica's timestamp τ_i at acceptance.
type Response struct {
	Client  sharegraph.ClientID
	Replica sharegraph.ReplicaID
	Reg     sharegraph.Register
	Val     core.Value
	IsRead  bool
	Tau     timestamp.Vec
}

// NewServer builds replica i's server.
func NewServer(sys *System, i sharegraph.ReplicaID) *Server {
	// Ingest drops are counted, not logged: StaleDrops reports them.
	diag := core.NewDiag(func(string, ...any) {}, nil)
	return &Server{sys: sys, id: i, node: sys.proto.NewNode(i, diag), diag: diag}
}

// ID returns the replica id.
func (s *Server) ID() sharegraph.ReplicaID { return s.id }

// Timestamp returns a copy of τ_i.
func (s *Server) Timestamp() timestamp.Vec { return s.node.Tau().Clone() }

// MetadataEntries returns |Ê_i|.
func (s *Server) MetadataEntries() int { return s.node.MetadataEntries() }

// PendingUpdates returns the number of buffered inter-replica updates
// still awaiting delivery (core.LivePendingCounter).
func (s *Server) PendingUpdates() int { return s.node.LivePending() }

// PendingRequests returns the number of buffered client requests.
func (s *Server) PendingRequests() int { return len(s.pendingRequests) }

// StaleDrops returns the number of received update messages J3 can never
// admit: duplicates, stale replays and updates from untracked senders,
// which the node parks dead, plus the malformed envelopes (corrupt or
// wrong-length timestamp, unknown sender, misrouted) dropped at ingest.
func (s *Server) StaleDrops() int {
	return s.node.PendingCount() - s.node.LivePending() + int(s.diag.Drops())
}

// HandleRequest ingests a client request, appending everything it
// produces to out (the caller owns and recycles the Outcome — the emit
// half of the contract that keeps the serve path allocation-free). If
// the request's predicate holds it is served immediately; otherwise it
// is buffered until later update applications unblock it. The server
// takes ownership of req.Mu. Returns false — without consuming req — if
// the request does not belong here: addressed to a different replica,
// from an unknown client or one that may not access this replica, naming
// a register not stored here, or carrying a µ of the wrong length.
func (s *Server) HandleRequest(req Request, out *Outcome) bool {
	if req.Replica != s.id || req.Client < 0 || int(req.Client) >= len(s.sys.views) ||
		!s.sys.views[req.Client][s.id].ok || len(req.Mu) != s.sys.ClientGraphs[req.Client].Len() ||
		!s.sys.Aug.G.StoresRegister(s.id, req.Reg) {
		return false
	}
	if !s.requestReady(req) {
		s.pendingRequests = append(s.pendingRequests, req)
		return true
	}
	out.meta = &s.sys.meta
	s.serve(req, out)
	return true
}

// requestReady implements J1 = J2: τ[e_ji] ≥ µ[e_ji] for every edge into
// this replica tracked by Ê_i.
func (s *Server) requestReady(req Request) bool {
	return s.sys.views[req.Client][s.id].incoming.Dominates(s.node.Tau(), req.Mu)
}

// Outcome collects everything one event produced: responses to clients,
// update messages to replicas (it is the core.Sink the server's node
// emits into) and the updates applied.
//
// Callers pass an Outcome into HandleRequest/HandleUpdate and recycle it
// with Reset once its contents are consumed. Ownership of the buffers
// inside (Updates[i].Meta, Responses[i].Tau) transfers to whoever consumes
// the message: HandleUpdate recycles Meta after ingest, clients recycle
// Tau when absorbing the response.
type Outcome struct {
	Responses []Response
	Updates   []core.Envelope
	Applied   []core.Applied

	meta *transport.BytePool // the serving System's; set before any Emit
}

// Emit implements core.Sink: the node's Meta is scratch, so the retained
// envelope gets a pooled copy.
func (o *Outcome) Emit(env core.Envelope) {
	env.Meta = o.meta.Copy(env.Meta)
	o.Updates = append(o.Updates, env)
}

// Reset clears the outcome for reuse, keeping capacity. It does not
// release the buffers referenced by the cleared entries — their ownership
// moved to the message consumers at dispatch.
func (o *Outcome) Reset() {
	o.Responses = o.Responses[:0]
	o.Updates = o.Updates[:0]
	o.Applied = o.Applied[:0]
}

// serve executes an accepted request (predicate already true), recycling
// the request's µ once it is consumed. A write is the prototype's, after
// τ is raised by µ; J2 just checked that τ dominates µ on every edge into
// i, so the raise moves no gate (see the package comment).
func (s *Server) serve(req Request, out *Outcome) {
	if s.tracker != nil {
		s.tracker.OnClientAccess(req.Client, s.id)
	}
	val := req.Val
	if req.IsRead {
		val, _ = s.node.Read(req.Reg)
	} else {
		var id causality.UpdateID
		if s.tracker != nil {
			id = s.tracker.OnClientWrite(req.Client, s.id, req.Reg)
		}
		s.node.RaiseTau(s.sys.views[req.Client][s.id].raise, req.Mu)
		if err := s.node.HandleWrite(req.Reg, val, id, out); err != nil {
			panic(err) // HandleRequest admits only registers stored here
		}
	}
	s.sys.putVec(req.Mu)
	out.Responses = append(out.Responses, Response{
		Client: req.Client, Replica: s.id, Reg: req.Reg,
		Val: val, IsRead: req.IsRead, Tau: s.sys.cloneVec(s.node.Tau()),
	})
}

// HandleUpdate ingests an inter-replica update (step 3 of the replica
// prototype) and then serves the buffered client requests the applies
// unblocked, into out. The server takes ownership of env.Meta.
//
// Serving a request never unblocks an update — a write moves only this
// replica's outgoing edges, J3 reads incoming ones — so "drain updates,
// then requests, once" is the fixpoint.
func (s *Server) HandleUpdate(env core.Envelope, out *Outcome) {
	if env.To != s.id {
		s.diag.Dropf(s.id, "client-server: replica %d dropping update addressed to %d", s.id, env.To)
		s.sys.meta.Put(env.Meta)
		return
	}
	out.meta = &s.sys.meta
	applied := s.node.HandleMessage(env, out)
	s.sys.meta.Put(env.Meta)
	if len(applied) == 0 {
		return
	}
	if s.tracker != nil {
		for _, a := range applied {
			s.tracker.OnApply(s.id, a.OracleID)
		}
	}
	out.Applied = append(out.Applied, applied...)
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

// Read returns the local copy (diagnostics; client reads go through
// HandleRequest).
func (s *Server) Read(x sharegraph.Register) (core.Value, bool) { return s.node.Read(x) }

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
