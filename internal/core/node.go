// Package core implements the replica prototype of Section 2.1 of
// Xiang & Vaidya (PODC 2019) — once — and its Section 3.3 instantiation
// with edge-indexed vector timestamps, the paper's primary contribution.
//
// The paper defines one prototype (store registers; buffer received
// updates; apply one when predicate J holds; merge its timestamp) and
// treats its own algorithm, the protocols it argues against and the
// Appendix D relays as instantiations that differ only in the timestamp,
// advance, merge and J. The code has the same shape: Prototype is the one
// node implementation in the repository, and a protocol is a Prototype
// plus a Clock (the vector and its three operations) and a Router (whom a
// write reaches, as data or as metadata only; what an applied update
// materializes and forwards):
//
//	protocol                                Clock                          Router
//	EdgeIndexed (Section 3.3)               SpaceClocks over E_i           ShareRoutes
//	baseline FIFO / vector / matrix         dense clocks                   ShareRoutes (Broadcast: everyone)
//	optimize dummy copies, truncation       SpaceClocks over the new E_i   ShareRoutes with realStore
//	optimize placements, ring breaking      SpaceClocks, effective graph   relayRoute
//	clientserver.Server (Section 6)         SpaceClocks over Ê_i           ShareRoutes of the share graph
//
// The client-server row is a node plus a layer: its servers admit client
// requests against τ_i and raise it by µ_c before a write, through
// Layered, and the sim.Space hosting them calls the server's Settle after
// every delivery that applied something, so the requests those applies
// unblocked are served under the same lock.
//
// The protocol logic is a pure, single-threaded state machine per replica
// (a Node): client operations and message deliveries are methods that
// emit the messages to send and return the updates applied. Runtimes — the
// deterministic simulator and the live goroutine cluster in internal/sim,
// the sharded and TCP runtimes — layer scheduling, transport and
// concurrency on top without duplicating any protocol logic.
package core

import (
	"fmt"

	"repro/internal/causality"
	"repro/internal/sharegraph"
)

// Value is the content of a shared register write.
type Value int64

// Envelope is one update message on the wire: the register/value payload
// plus protocol metadata in encoded form. Meta's length is exactly the
// per-message metadata overhead the experiments measure. OracleID carries
// the causality oracle's identifier for checking only — protocols must
// never branch on it.
type Envelope struct {
	From     sharegraph.ReplicaID
	To       sharegraph.ReplicaID
	Reg      sharegraph.Register
	Val      Value
	Meta     []byte
	OracleID causality.UpdateID
	// MetaOnly marks a metadata-only message carrying no register value —
	// used by the dummy-register full-replication emulation of Section 5,
	// where replicas that do not store a register still receive timestamp
	// updates for it. MetaOnly deliveries never count as applied updates.
	MetaOnly bool
}

// Dest returns the destination replica as an inbox index — the routing
// hook the shared worker-pool engine (internal/runtime) keys on.
func (e Envelope) Dest() int { return int(e.To) }

// Source returns the sending replica — the hook the engine's fault
// layer keys its per-edge loss, duplication and partition plans on.
func (e Envelope) Source() int { return int(e.From) }

// Applied reports one update a node applied while processing an event.
type Applied struct {
	OracleID causality.UpdateID
	From     sharegraph.ReplicaID
	Reg      sharegraph.Register
	Val      Value
}

// Sink consumes the envelopes a node emits while handling one event. It
// is the runtime half of the emit contract that keeps the write fanout
// allocation-free: instead of allocating and returning an envelope slice,
// a node pushes each outgoing message into the caller's sink.
//
// Ownership: an Envelope passed to Emit — including its Meta buffer — is
// node-owned scratch, valid only for the duration of the Emit call. A
// sink that retains the envelope beyond that (buffering it in an inbox or
// a message pool) must copy Meta first; runtimes recycle those copies
// through freelists once the message has been ingested, so the steady
// state stays allocation-free end to end.
type Sink interface {
	Emit(Envelope)
}

// Node is one replica's protocol state machine. Implementations are not
// safe for concurrent use; runtimes serialize access per node.
type Node interface {
	// ID returns the replica this node implements.
	ID() sharegraph.ReplicaID

	// HandleWrite processes a client write to a locally stored register:
	// it applies the write locally and emits the update messages to send
	// into out (see Sink for the ownership contract). id is the causality
	// oracle's identifier for this update. It fails if the register is
	// not stored at this replica.
	HandleWrite(x sharegraph.Register, v Value, id causality.UpdateID, out Sink) error

	// HandleMessage ingests one received envelope, applies it and any
	// previously buffered updates that have become deliverable, and
	// returns the applied updates in application order. Messages to
	// forward (relaying protocols, such as the Appendix D virtual
	// register overlays, propagate updates hop by hop) are emitted into
	// out under the Sink ownership contract.
	//
	// The returned Applied slice is node-owned scratch, valid until the
	// next call on the node; runtimes consume it before dispatching
	// further events to the same node.
	HandleMessage(env Envelope, out Sink) []Applied

	// Read returns the local copy of register x, per step 1 of the
	// prototype (reads never block). ok is false if x is not stored here.
	Read(x sharegraph.Register) (v Value, ok bool)

	// PendingCount returns the number of buffered (received but not yet
	// applied) updates — the pending_i set of the prototype.
	PendingCount() int

	// PendingOracleIDs lists the buffered updates' oracle IDs, for false
	// dependency accounting. Order is unspecified.
	PendingOracleIDs() []causality.UpdateID

	// MetadataEntries returns the number of integer counters in this
	// replica's timestamp — the quantity the paper's lower bounds govern.
	MetadataEntries() int
}

// Protocol builds the per-replica nodes of one causal-consistency
// implementation over a given share graph.
//
// Every node implementation follows the emit contract: envelopes a node
// passes to a Sink reference node-owned scratch (notably the encoded
// metadata buffer) and must be consumed — delivered or copied — before
// the runtime's next call on that node. See Sink.
type Protocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// NewNodes builds one node per replica.
	NewNodes() ([]Node, error)
}

// Collector is a Sink that accumulates emitted envelopes into a slice,
// cloning each Meta buffer so the envelopes stay valid across subsequent
// node calls. Tests and simple drivers use it where the allocation-free
// emit path does not matter; hot runtimes implement their own recycling
// sinks instead.
type Collector struct {
	Envs []Envelope
}

// Emit implements Sink.
func (c *Collector) Emit(env Envelope) {
	if env.Meta != nil {
		env.Meta = append([]byte(nil), env.Meta...)
	}
	c.Envs = append(c.Envs, env)
}

// Reset clears the collector for reuse, keeping its capacity.
func (c *Collector) Reset() { c.Envs = c.Envs[:0] }

// CollectWrite invokes n.HandleWrite and returns the emitted envelopes as
// a fresh slice with cloned metadata — the allocate-and-return shape the
// emit API replaced, for tests and hand-driven executions.
func CollectWrite(n Node, x sharegraph.Register, v Value, id causality.UpdateID) ([]Envelope, error) {
	var c Collector
	if err := n.HandleWrite(x, v, id, &c); err != nil {
		return nil, err
	}
	return c.Envs, nil
}

// CollectMessage invokes n.HandleMessage and returns the applied updates
// plus the forwarded envelopes as a fresh slice with cloned metadata.
func CollectMessage(n Node, env Envelope) ([]Applied, []Envelope) {
	var c Collector
	applied := n.HandleMessage(env, &c)
	return applied, c.Envs
}

// DiscardSink is a Sink that drops every envelope — for benchmarks and
// tests that only care about a node's local effects.
type DiscardSink struct{}

// Emit implements Sink.
func (DiscardSink) Emit(Envelope) {}

// NotStoredError reports that a client operation named a register the
// replica does not store. Match it with errors.As.
type NotStoredError struct {
	Replica  sharegraph.ReplicaID
	Register sharegraph.Register
}

func (e *NotStoredError) Error() string {
	return fmt.Sprintf("core: replica %d does not store register %q", e.Replica, e.Register)
}
