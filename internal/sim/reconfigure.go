package sim

import (
	"fmt"

	"repro/internal/core"
)

// Reconfigure switches a running cluster onto a different protocol over
// the SAME base share graph — the live half of placement optimization:
// run, observe, search a better placement, reconfigure onto it without
// restarting or losing state.
//
// The switch is a two-phase epoch fence:
//
//  1. Quiesce-drain: the epoch write lock blocks new client writes
//     (Write holds the read side across issue+send), then Quiesce waits
//     for every in-flight delivery — including relay cascades — to
//     drain. At that point the old epoch's causal history is fully
//     applied: no message of the old timestamp space exists anywhere.
//  2. Snapshot/install: each old node's register contents are carried
//     into a fresh node of the next protocol via a store-only
//     NodeCheckpoint (nil Tau — the old vector indexes the old space's
//     edges and is meaningless in the new one; the new epoch starts
//     from zero). Nodes are swapped under their locks, then the
//     protocol pointer itself.
//
// Causal consistency is preserved across the fence by the quiesce
// argument: every update issued before the fence is applied everywhere
// before any update issued after it, so the new epoch's zero timestamps
// start from a causally closed frontier — exactly the initial-state
// assumption the protocol's correctness argument makes.
//
// Reconfigure fails (leaving the cluster on the old protocol) if any
// replica is down (restart it first), the fault layer still holds
// parked messages (heal partitions first), a node is left with a
// buffered-but-undeliverable update after the drain (a liveness bug —
// reconfiguring would silently drop it), or either protocol's nodes do
// not support snapshotting. Recovery checkpoints and retention logs
// reference the old epoch's timestamp space, so they are discarded;
// re-checkpoint after a successful reconfigure.
func (c *Cluster) Reconfigure(next core.Protocol) error {
	if c.closed.Load() {
		return fmt.Errorf("cluster: closed")
	}
	// Build the next epoch's nodes before fencing anything.
	c.armDiag(next)
	newNodes, err := next.NewNodes()
	if err != nil {
		return fmt.Errorf("cluster: reconfigure: build nodes: %w", err)
	}
	if len(newNodes) != len(c.space.nodes) {
		return fmt.Errorf("cluster: reconfigure: next protocol has %d replicas, cluster has %d",
			len(newNodes), len(c.space.nodes))
	}

	c.epoch.Lock()
	defer c.epoch.Unlock()
	c.Quiesce()
	if c.closed.Load() {
		return fmt.Errorf("cluster: closed")
	}
	if f := c.eng.Faults(); f != nil {
		if n := f.ParkedMessages(); n > 0 {
			return fmt.Errorf("cluster: reconfigure: %d messages parked at the fault layer — heal partitions first", n)
		}
	}

	// Phase A: snapshot every old node and install into the new ones.
	// Nothing is mutated yet, so any failure aborts cleanly.
	installed := make([]core.Snapshotter, len(c.space.nodes))
	for r := range c.space.nodes {
		c.space.mu[r].Lock()
		if c.space.rec != nil && c.space.rec[r].down {
			c.space.mu[r].Unlock()
			return fmt.Errorf("cluster: reconfigure: replica %d is down", r)
		}
		oldSn, ok := c.space.nodes[r].(core.Snapshotter)
		if !ok {
			c.space.mu[r].Unlock()
			return fmt.Errorf("cluster: reconfigure: protocol %T does not support snapshotting", c.space.nodes[r])
		}
		// Post-quiesce, a LIVE pending update means some causally earlier
		// message never arrived — a liveness bug the fence must not paper
		// over by dropping state. Dead-parked buffers (fault-injected
		// duplicates, stale replays, metadata-only leftovers) can never
		// deliver and die with the old epoch.
		if lp, ok := c.space.nodes[r].(core.LivePendingCounter); ok {
			if n := lp.LivePending(); n != 0 {
				c.space.mu[r].Unlock()
				return fmt.Errorf("cluster: reconfigure: replica %d still buffers %d undeliverable updates after the drain", r, n)
			}
		}
		ck := oldSn.Snapshot()
		c.space.mu[r].Unlock()
		newSn, ok := newNodes[r].(core.Snapshotter)
		if !ok {
			return fmt.Errorf("cluster: reconfigure: next protocol %T does not support snapshotting", newNodes[r])
		}
		// Store-only checkpoint: nil Tau keeps the new node's zero vector,
		// no pendings cross the fence.
		if _, err := newSn.Install(&core.NodeCheckpoint{Replica: ck.Replica, Store: ck.Store}); err != nil {
			return fmt.Errorf("cluster: reconfigure: install at %d: %w", r, err)
		}
		installed[r] = newSn
	}

	// Phase B: swap. Reads (which take only the replica lock) see either epoch's
	// node — both serve the same register contents.
	for r := range c.space.nodes {
		c.space.mu[r].Lock()
		c.space.nodes[r] = installed[r]
		if c.space.rec != nil {
			// Old-epoch checkpoints and logs index the old timestamp
			// space; replaying them into the new epoch would corrupt it.
			c.space.rec[r] = replicaRec{}
		}
		c.space.mu[r].Unlock()
	}
	c.space.protocol = next
	return nil
}
