package core

import (
	"repro/internal/sharegraph"
	"repro/internal/timestamp"
)

// NodeCheckpoint is a self-contained snapshot of one replica's protocol
// state: register contents, the vector timestamp, and the buffered
// (received but not yet deliverable) updates re-encoded as envelopes.
// Together with the oracle's ReplicaCheckpoint it is everything a
// crashed replica needs to rejoin — the runtime-side retention log
// replays whatever happened after the snapshot.
//
// The checkpoint owns all of its memory (maps, vectors, encoded
// metadata); it stays valid however the node evolves afterwards, and
// one checkpoint may be installed any number of times.
//
// A nil Tau marks a store-only checkpoint: Install keeps the target
// node's fresh zero timestamp instead of rejecting a length mismatch.
// Live reconfiguration uses this to carry register contents across an
// epoch fence onto a different timestamp space, where the old vector
// is meaningless by construction.
type NodeCheckpoint struct {
	Replica sharegraph.ReplicaID
	Store   map[sharegraph.Register]Value
	Tau     timestamp.Vec
	Pending []Envelope
}

// Snapshotter is implemented by nodes that support crash/restart state
// transfer; the prototype gives it to every protocol.
type Snapshotter interface {
	Node
	// Snapshot captures the node's current state.
	Snapshot() *NodeCheckpoint
	// Install resets the node to a checkpoint previously taken from a
	// node of the same protocol and replica. Buffered updates are
	// re-filed through the normal ingest path; by protocol determinism
	// they stay buffered (they were undeliverable at snapshot time and
	// the restored τ is identical), but any applies that do occur are
	// returned so the runtime can report them to the oracle.
	Install(ck *NodeCheckpoint) ([]Applied, error)
}

// LivePendingCounter is implemented by nodes that can distinguish
// buffered updates still awaiting delivery from dead-parked ones (stale
// sequence numbers, fault-injected duplicates, untracked edges) that
// the delivery predicate can never admit. PendingCount counts both —
// matching the reference rescan drain — so reconfiguration fences use
// LivePending to decide whether a drained cluster has truly applied
// every update: at global quiesce every live buffered update's causal
// blockers are themselves delivered and the drain fixpoint admits them,
// so a nonzero LivePending after a drain is a liveness bug, while dead
// parkings are garbage the epoch switch may discard.
type LivePendingCounter interface {
	Node
	LivePending() int
}
