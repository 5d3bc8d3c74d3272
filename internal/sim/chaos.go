package sim

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/causality"
	"repro/internal/core"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
	"repro/internal/workload"
)

// ChaosConfig describes one orchestrated chaos run: a workload executed
// in three phases with faults injected at the phase boundaries.
type ChaosConfig struct {
	Graph    *sharegraph.Graph
	Protocol core.Protocol
	Script   workload.Script
	// Plan seeds the per-edge loss/duplication lottery for the whole run.
	Plan rt.FaultPlan
	// Partition, when true, cuts PartitionA↔PartitionB in both directions
	// after the first third of the workload. PartitionHeal > 0 schedules
	// the heal; otherwise the cut lasts until the end-of-run HealAll.
	Partition              bool
	PartitionA, PartitionB sharegraph.ReplicaID
	PartitionHeal          time.Duration
	// Crash, when true, checkpoints CrashReplica up front, crashes it
	// after the first third, and restarts it (checkpoint + log replay +
	// parked-delivery flush) after the second third. The victim's
	// middle-third operations are deferred to the final third, preserving
	// its per-replica program order.
	Crash        bool
	CrashReplica sharegraph.ReplicaID
	// Reconfigure, when non-nil, live-switches the cluster onto this
	// protocol at the 2/3 boundary — after the crash victim restarts and
	// with partitions healed first (Cluster.Reconfigure requires an
	// empty fault layer). The run therefore exercises an epoch fence in
	// the middle of recovery traffic, the hardest spot for it.
	Reconfigure core.Protocol
	// Opts are extra cluster options (workers, seed, inbox capacity, …).
	Opts []ClusterOption
	// OnCluster, when non-nil, is called with the live cluster after
	// construction and before the workload starts — a hook for observers
	// (e.g. a status endpoint scraping Cluster.Metrics during the run).
	// The cluster is closed when RunChaos returns; the hook must not
	// retain it past that.
	OnCluster func(*Cluster)
}

// ChaosResult reports what a chaos run did and what the oracle thought
// of it.
type ChaosResult struct {
	// Violations is the oracle's verdict after HealAll and Quiesce:
	// safety violations plus liveness failures. A correct protocol under
	// transient faults must return none.
	Violations []causality.Violation
	// FinalState is the per-replica register contents after quiescence.
	FinalState   []map[sharegraph.Register]core.Value
	MessagesSent int64
	MetaBytes    int64
	Dropped      uint64
	Duped        uint64
	PendingTotal int
}

// RunChaos executes the configured run: phase 1 fault-free apart from
// the ambient loss/duplication lottery, faults injected at the 1/3
// boundary, recovery at the 2/3 boundary, then HealAll, Quiesce and a
// full oracle audit. Transient faults never excuse a verdict: every
// cut heals and every crash restarts before the audit, so zero
// violations — including liveness — is the pass criterion.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	// Refuse a bad fault target before any write runs.
	n := cfg.Graph.NumReplicas()
	bad := func(r sharegraph.ReplicaID) bool { return r < 0 || int(r) >= n }
	if cfg.Partition && (bad(cfg.PartitionA) || bad(cfg.PartitionB)) || cfg.Crash && bad(cfg.CrashReplica) {
		return nil, fmt.Errorf("chaos: fault target outside [0,%d)", n)
	}
	opts := append([]ClusterOption{WithChaos(cfg.Plan)}, cfg.Opts...)
	c, err := NewCluster(cfg.Graph, cfg.Protocol, opts...)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if cfg.OnCluster != nil {
		cfg.OnCluster(c)
	}

	if cfg.Crash {
		if err := c.Checkpoint(cfg.CrashReplica); err != nil {
			return nil, err
		}
	}

	// Split the script into thirds, keeping per-replica order.
	var phases [3][][]workload.Op
	for p := range phases {
		phases[p] = make([][]workload.Op, n)
	}
	for i, op := range cfg.Script {
		p := i * 3 / len(cfg.Script)
		phases[p][op.Replica] = append(phases[p][op.Replica], op)
	}

	var val atomic.Int64
	c.drive(phases[0], &val)

	if cfg.Partition {
		if err := c.Partition(cfg.PartitionA, cfg.PartitionB, cfg.PartitionHeal); err != nil {
			return nil, err
		}
	}
	var deferred []workload.Op
	if cfg.Crash {
		if err := c.Crash(cfg.CrashReplica); err != nil {
			return nil, err
		}
		deferred = phases[1][cfg.CrashReplica]
		phases[1][cfg.CrashReplica] = nil
	}

	c.drive(phases[1], &val)

	if cfg.Crash {
		if err := c.Restart(cfg.CrashReplica); err != nil {
			return nil, fmt.Errorf("restart replica %d: %w", cfg.CrashReplica, err)
		}
		phases[2][cfg.CrashReplica] = append(deferred, phases[2][cfg.CrashReplica]...)
	}

	if cfg.Reconfigure != nil {
		// The fence rejects parked messages, so flush the cuts first; the
		// ambient loss/duplication lottery stays armed across the switch.
		if cfg.Partition {
			if err := c.HealAll(); err != nil {
				return nil, err
			}
		}
		if err := c.Reconfigure(cfg.Reconfigure); err != nil {
			return nil, fmt.Errorf("reconfigure: %w", err)
		}
	}

	c.drive(phases[2], &val)

	if err := c.HealAll(); err != nil {
		return nil, err
	}
	c.Quiesce()

	res := &ChaosResult{
		FinalState:   c.StateSnapshot(),
		MessagesSent: c.MessagesSent(),
		MetaBytes:    c.MetaBytes(),
		PendingTotal: c.PendingTotal(),
	}
	if f := c.Faults(); f != nil {
		res.Dropped = f.Dropped()
		res.Duped = f.Duped()
	}
	res.Violations = c.space.Audit()
	return res, nil
}
