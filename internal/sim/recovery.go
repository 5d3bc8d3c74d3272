package sim

import (
	"fmt"
	"time"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/sharegraph"
)

// replicaRec is one replica's crash/restart state, guarded by the
// replica's Space lock. The recovery model is checkpoint + retention
// log: Checkpoint snapshots the node and the oracle's view of it and
// starts logging every subsequent local event (client writes and
// ingested envelopes); Restart rebuilds a fresh node from the
// checkpoint and replays the log in original order, which per-replica
// protocol determinism makes an exact reconstruction.
type replicaRec struct {
	down    bool
	logging bool
	log     []logEntry
	// parked holds envelopes that slipped past the fault layer's down
	// check before delivery; their pooled Meta buffers are retained
	// until Restart re-forwards them.
	parked []core.Envelope
	ckpt   *core.NodeCheckpoint
	ockpt  *causality.ReplicaCheckpoint
}

// logEntry is one retained local event: either a client write (reg,
// val, oracle id) or an ingested envelope whose Meta the log owns.
type logEntry struct {
	write bool
	env   core.Envelope
	reg   sharegraph.Register
	val   core.Value
	id    causality.UpdateID
}

func (c *Cluster) requireChaos() error {
	if c.space.rec == nil {
		return fmt.Errorf("cluster: built without WithChaos")
	}
	return nil
}

// Partition cuts the links between a and b in both directions. Messages
// crossing a cut edge park at the transport and deliver at heal time.
// healAfter > 0 schedules an automatic heal; 0 cuts until Heal/HealAll.
func (c *Cluster) Partition(a, b sharegraph.ReplicaID, healAfter time.Duration) error {
	if err := c.requireChaos(); err != nil {
		return err
	}
	c.eng.Faults().CutBoth(int(a), int(b), healAfter)
	return nil
}

// PartitionOneWay cuts only the from→to direction: an asymmetric link.
func (c *Cluster) PartitionOneWay(from, to sharegraph.ReplicaID, healAfter time.Duration) error {
	if err := c.requireChaos(); err != nil {
		return err
	}
	c.eng.Faults().Cut(int(from), int(to), healAfter)
	return nil
}

// Heal restores both directions between a and b, flushing parked
// messages.
func (c *Cluster) Heal(a, b sharegraph.ReplicaID) error {
	if err := c.requireChaos(); err != nil {
		return err
	}
	f := c.eng.Faults()
	f.Heal(int(a), int(b))
	f.Heal(int(b), int(a))
	return nil
}

// HealAll removes every cut in the cluster.
func (c *Cluster) HealAll() error {
	if err := c.requireChaos(); err != nil {
		return err
	}
	c.eng.Faults().HealAll()
	return nil
}

// Checkpoint snapshots replica r — protocol state plus the oracle's
// causal bookkeeping for r — and begins retaining r's subsequent local
// events so a later Crash/Restart can replay them. Re-checkpointing
// truncates the retention log.
func (c *Cluster) Checkpoint(r sharegraph.ReplicaID) error {
	if err := c.requireChaos(); err != nil {
		return err
	}
	sn, ok := c.space.nodes[r].(core.Snapshotter)
	if !ok {
		return fmt.Errorf("cluster: protocol %T does not support checkpointing", c.space.nodes[r])
	}
	c.space.mu[r].Lock()
	defer c.space.mu[r].Unlock()
	rec := &c.space.rec[r]
	if rec.down {
		return fmt.Errorf("cluster: replica %d is down", r)
	}
	rec.ckpt = sn.Snapshot()
	if c.space.tracker != nil {
		rec.ockpt = c.space.tracker.ExportCheckpoint(r)
	}
	rec.logging = true
	rec.log = nil
	return nil
}

// Crash takes replica r down: it stops serving reads and writes, the
// fault layer parks everything addressed to it, and any delivery already
// in flight parks at the node boundary. State accumulated since the last
// Checkpoint is considered lost until Restart replays the retention log.
func (c *Cluster) Crash(r sharegraph.ReplicaID) error {
	if err := c.requireChaos(); err != nil {
		return err
	}
	c.space.mu[r].Lock()
	rec := &c.space.rec[r]
	if rec.down {
		c.space.mu[r].Unlock()
		return fmt.Errorf("cluster: replica %d is already down", r)
	}
	rec.down = true
	c.space.mu[r].Unlock()
	c.eng.Faults().SetDown(int(r), true)
	return nil
}

// Restart recovers a crashed replica by state transfer: a fresh node is
// built, the last checkpoint is installed into it and into the oracle,
// and the retention log is replayed synchronously in original order.
// Replayed events re-apply with no re-emission — an update's fanout was
// already dispatched at first execution, and the transport never truly
// loses a message (drops retransmit, cuts park), so resending would only
// manufacture duplicates. The oracle is told each replayed apply, then
// deliveries that arrived while the replica was down are released.
func (c *Cluster) Restart(r sharegraph.ReplicaID) error {
	if err := c.requireChaos(); err != nil {
		return err
	}
	// Build the replacement node before taking the lock.
	fresh, err := c.space.protocol.NewNodes()
	if err != nil {
		return fmt.Errorf("cluster: rebuild nodes: %w", err)
	}
	node, ok := fresh[r].(core.Snapshotter)
	if !ok {
		return fmt.Errorf("cluster: protocol %T does not support checkpointing", fresh[r])
	}

	c.space.mu[r].Lock()
	rec := &c.space.rec[r]
	if !rec.down {
		c.space.mu[r].Unlock()
		return fmt.Errorf("cluster: replica %d is not down", r)
	}
	if rec.ckpt == nil {
		c.space.mu[r].Unlock()
		return fmt.Errorf("cluster: replica %d has no checkpoint to restore from", r)
	}
	applied, err := node.Install(rec.ckpt)
	if err != nil {
		c.space.mu[r].Unlock()
		return fmt.Errorf("cluster: install checkpoint at %d: %w", r, err)
	}
	if c.space.tracker != nil {
		if err := c.space.tracker.RestoreCheckpoint(r, rec.ockpt); err != nil {
			c.space.mu[r].Unlock()
			return fmt.Errorf("cluster: restore oracle checkpoint at %d: %w", r, err)
		}
		// Determinism keeps installed pendings pending, but report any
		// applies Install did produce rather than hide them.
		for _, a := range applied {
			c.space.tracker.OnApply(r, a.OracleID)
		}
	}
	c.space.nodes[r] = node
	oldLog := rec.log
	// Re-checkpoint the restored basis so a second crash replays only
	// events after this recovery.
	rec.ckpt = node.Snapshot()
	if c.space.tracker != nil {
		rec.ockpt = c.space.tracker.ExportCheckpoint(r)
	}
	rec.log = nil
	for _, le := range oldLog {
		if le.write {
			if err := node.HandleWrite(le.reg, le.val, le.id, core.DiscardSink{}); err != nil {
				c.space.mu[r].Unlock()
				return fmt.Errorf("cluster: replay write at %d: %w", r, err)
			}
			if c.space.tracker != nil {
				// The oracle saw OnIssue at first execution and rolled the
				// apply back in restore; replay is an apply, not a re-issue.
				c.space.tracker.OnApply(r, le.id)
			}
		} else {
			replayed := node.HandleMessage(le.env, core.DiscardSink{})
			if c.space.tracker != nil {
				for _, a := range replayed {
					c.space.tracker.OnApply(r, a.OracleID)
				}
			}
		}
		rec.log = append(rec.log, le)
	}
	parked := rec.parked
	rec.parked = nil
	rec.down = false
	c.space.mu[r].Unlock()

	// Release deliveries that raced past the fault layer while down
	// (their Meta is still pooled and will be recycled on delivery), then
	// let the fault layer flush everything it parked for r.
	c.eng.Forward(parked...)
	c.eng.Faults().SetDown(int(r), false)
	return nil
}
