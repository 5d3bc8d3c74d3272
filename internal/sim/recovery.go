package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/causality"
	"repro/internal/core"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
)

// replicaRec is one replica's crash/restart state, guarded by the
// replica's Space lock. The recovery model is checkpoint + retention
// log: Checkpoint snapshots the node and the oracle's view of it, and
// from then on (ckpt != nil) every local event, client write or
// ingested envelope, is logged; Restart rebuilds a fresh node from the
// checkpoint and replays the log in original order, which per-replica
// protocol determinism makes an exact reconstruction.
type replicaRec struct {
	down bool
	log  []logEntry
	// parked holds the deliveries that reached the replica while it was
	// down; their pooled Meta buffers are retained until Restart hands
	// them back for re-forwarding.
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

var errNoChaos = errors.New("built without WithChaos")

// recoverable checks r and that the host enabled crash/restart.
func (sp *Space) recoverable(r sharegraph.ReplicaID) error {
	if sp.rec == nil {
		return errNoChaos
	}
	return sp.check(r)
}

// Checkpoint snapshots replica r — protocol state plus the oracle's
// causal bookkeeping for r — and begins retaining r's subsequent local
// events so a later Crash/Restart can replay them. Re-checkpointing
// truncates the retention log.
func (sp *Space) Checkpoint(r sharegraph.ReplicaID) error {
	if err := sp.recoverable(r); err != nil {
		return err
	}
	sp.mu[r].Lock()
	defer sp.mu[r].Unlock()
	rec := &sp.rec[r]
	if rec.down {
		return fmt.Errorf("replica %d is down", r)
	}
	sn, ok := sp.nodes[r].(core.Snapshotter)
	if !ok {
		return fmt.Errorf("protocol %T does not support checkpointing", sp.nodes[r])
	}
	rec.ckpt = sn.Snapshot()
	if sp.tracker != nil {
		rec.ockpt = sp.tracker.ExportCheckpoint(r)
	}
	rec.log = nil
	return nil
}

// Crash takes replica r down: it stops serving reads and writes, and
// every delivery addressed to it parks in Deliver. State accumulated
// since the last Checkpoint is considered lost until Restart replays
// the retention log.
func (sp *Space) Crash(r sharegraph.ReplicaID) error {
	if err := sp.recoverable(r); err != nil {
		return err
	}
	sp.mu[r].Lock()
	defer sp.mu[r].Unlock()
	if sp.rec[r].down {
		return fmt.Errorf("replica %d is already down", r)
	}
	sp.rec[r].down = true
	return nil
}

// Restart recovers a crashed replica by state transfer: a fresh node is
// built, the last checkpoint is installed into it and into the oracle,
// and the retention log is replayed synchronously in original order.
// Replayed events re-apply with no re-emission — an update's fanout was
// already dispatched at first execution, and the transport never truly
// loses a message (drops retransmit, cuts park), so resending would only
// manufacture duplicates. The oracle is told each replayed apply. The
// deliveries parked while r was down are returned, Meta still pooled,
// for the host to re-forward.
func (sp *Space) Restart(r sharegraph.ReplicaID) ([]core.Envelope, error) {
	if err := sp.recoverable(r); err != nil {
		return nil, err
	}
	// Build the replacement node before taking the lock.
	fresh, err := sp.protocol.NewNodes()
	if err != nil {
		return nil, fmt.Errorf("rebuild nodes: %w", err)
	}
	node, ok := fresh[r].(core.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("protocol %T does not support checkpointing", fresh[r])
	}

	sp.mu[r].Lock()
	defer sp.mu[r].Unlock()
	rec := &sp.rec[r]
	if !rec.down {
		return nil, fmt.Errorf("replica %d is not down", r)
	}
	if rec.ckpt == nil {
		return nil, fmt.Errorf("replica %d has no checkpoint to restore from", r)
	}
	applied, err := node.Install(rec.ckpt)
	if err != nil {
		return nil, fmt.Errorf("install checkpoint at %d: %w", r, err)
	}
	if sp.tracker != nil {
		if err := sp.tracker.RestoreCheckpoint(r, rec.ockpt); err != nil {
			return nil, fmt.Errorf("restore oracle checkpoint at %d: %w", r, err)
		}
	}
	// Determinism keeps installed pendings pending, but report any
	// applies Install did produce rather than hide them.
	sp.report(r, applied)
	// Install copies the checkpoint, so it stays the basis and the log
	// stays whole: a second crash restores and replays the same way.
	for _, le := range rec.log {
		if !le.write {
			sp.report(r, node.HandleMessage(le.env, core.DiscardSink{}))
			continue
		}
		if err := node.HandleWrite(le.reg, le.val, le.id, core.DiscardSink{}); err != nil {
			return nil, fmt.Errorf("replay write at %d: %w", r, err)
		}
		if sp.tracker != nil {
			// The oracle saw OnIssue at first execution and rolled the
			// apply back in restore; replay is an apply, not a re-issue.
			sp.tracker.OnApply(r, le.id)
		}
	}
	sp.nodes[r] = node
	parked := rec.parked
	rec.parked = nil
	rec.down = false
	return parked, nil
}

// Parked counts the deliveries parked at crashed replicas.
func (sp *Space) Parked() int {
	total := 0
	for r := range sp.rec {
		sp.mu[r].Lock()
		total += len(sp.rec[r].parked)
		sp.mu[r].Unlock()
	}
	return total
}

// fault runs do on the fault layer after checking that WithChaos built
// it and that every replica named is in [0,n).
func (c *Cluster) fault(do func(*rt.FaultInjector[core.Envelope]), rs ...sharegraph.ReplicaID) error {
	f := c.eng.Faults()
	if f == nil {
		return errNoChaos
	}
	for _, r := range rs {
		if err := c.space.check(r); err != nil {
			return err
		}
	}
	do(f)
	return nil
}

// Partition cuts the links between a and b in both directions. Messages
// crossing a cut edge park at the transport and deliver at heal time.
// healAfter > 0 schedules an automatic heal; 0 cuts until Heal/HealAll.
func (c *Cluster) Partition(a, b sharegraph.ReplicaID, healAfter time.Duration) error {
	return c.fault(func(f *rt.FaultInjector[core.Envelope]) { f.CutBoth(int(a), int(b), healAfter) }, a, b)
}

// PartitionOneWay cuts only the from→to direction: an asymmetric link.
func (c *Cluster) PartitionOneWay(from, to sharegraph.ReplicaID, healAfter time.Duration) error {
	return c.fault(func(f *rt.FaultInjector[core.Envelope]) { f.Cut(int(from), int(to), healAfter) }, from, to)
}

// Heal restores both directions between a and b, flushing parked
// messages.
func (c *Cluster) Heal(a, b sharegraph.ReplicaID) error {
	return c.fault(func(f *rt.FaultInjector[core.Envelope]) {
		f.Heal(int(a), int(b))
		f.Heal(int(b), int(a))
	}, a, b)
}

// HealAll removes every cut in the cluster.
func (c *Cluster) HealAll() error {
	return c.fault(func(f *rt.FaultInjector[core.Envelope]) { f.HealAll() })
}

// Checkpoint forwards to Space.Checkpoint.
func (c *Cluster) Checkpoint(r sharegraph.ReplicaID) error { return c.space.Checkpoint(r) }

// Crash forwards to Space.Crash: every message addressed to r parks at
// the node boundary until Restart.
func (c *Cluster) Crash(r sharegraph.ReplicaID) error { return c.space.Crash(r) }

// Restart recovers replica r (Space.Restart) and re-forwards the
// messages parked while it was down.
func (c *Cluster) Restart(r sharegraph.ReplicaID) error {
	parked, err := c.space.Restart(r)
	if err == nil {
		c.eng.Forward(parked...)
	}
	return err
}
