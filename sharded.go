package prcc

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/shard"
)

// ShardOptions configures the sharded multi-space runtime. The zero
// value of every field except Spaces selects the documented default.
type ShardOptions struct {
	// Spaces is the number of independent register spaces hosted by one
	// runtime (required, ≥ 1). Every space runs the system's protocol
	// over the system's placement, fully isolated from the others.
	Spaces int
	// Shards is the number of engine inboxes the spaces multiplex onto
	// (default min(Spaces, 4×workers)). Space s routes to shard
	// s mod Shards.
	Shards int
	// Workers is the shared delivery worker-pool size (default
	// GOMAXPROCS, at least 2) — the whole point of sharding is that this
	// does NOT scale with Spaces.
	Workers int
	// InboxCapacity bounds each shard's inbox in batches (default
	// 1024). Writes block while their shard's inbox is full.
	InboxCapacity int
	// FlushSize is the envelope count that flushes a staged batch
	// (default 32); 1 disables batching.
	FlushSize int
	// FlushInterval bounds how long a partial batch may sit staged
	// before the idle flusher pushes it (default 1ms).
	FlushInterval time.Duration
	// Seed drives the engine's per-inbox delivery shuffles.
	Seed int64
	// Audit arms one causality oracle per space. Unlike Cluster, the
	// default is off: at thousands of spaces the oracles dominate
	// memory, and the sharded↔independent differential test pins the
	// runtime against audited single-space runs instead.
	Audit bool
	// Metrics arms the observability registry: per-replica delivery and
	// stall counters, per-edge traffic attribution (aggregated across
	// spaces), and per-shard queue gauges, readable via
	// ShardedSystem.Metrics. Disarmed (the default) the instrumentation
	// is a nil check on the batch path.
	Metrics bool
}

// Sharded starts a sharded runtime hosting the given number of
// independent spaces of this system with default options.
func (s *System) Sharded(spaces int) (*ShardedSystem, error) {
	return s.ShardedWith(ShardOptions{Spaces: spaces})
}

// ShardedWith starts a sharded runtime with explicit options.
func (s *System) ShardedWith(opts ShardOptions) (*ShardedSystem, error) {
	r, err := shard.New(s.graph, s.protocol, shard.Options{
		Spaces:        opts.Spaces,
		Shards:        opts.Shards,
		Workers:       opts.Workers,
		InboxCapacity: opts.InboxCapacity,
		FlushSize:     opts.FlushSize,
		FlushInterval: opts.FlushInterval,
		Seed:          opts.Seed,
		Audit:         opts.Audit,
		Metrics:       opts.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("prcc: %w", err)
	}
	return &ShardedSystem{inner: r}, nil
}

// ShardedSystem hosts many independent instances ("spaces") of one
// System multiplexed over a single shared worker pool: registers are
// addressed by (space, replica, register), space s routes to engine
// shard s mod Shards, and outgoing update fanouts are batched per shard
// before entering the engine. See the package documentation's "Sharding
// and batching" section for the design.
type ShardedSystem struct {
	inner *shard.Runtime
}

// Spaces returns the number of hosted register spaces.
func (s *ShardedSystem) Spaces() int { return s.inner.Spaces() }

// Shards returns the number of engine inboxes spaces multiplex onto.
func (s *ShardedSystem) Shards() int { return s.inner.Shards() }

// Workers returns the shared delivery worker-pool size.
func (s *ShardedSystem) Workers() int { return s.inner.Workers() }

// Key renders the routing key "s<space>/<register>" for a register of
// one space; Resolve inverts it.
func (s *ShardedSystem) Key(space int, x Register) string {
	return s.inner.Router().Key(space, x)
}

// Resolve parses a routing key back to its (space, shard, register)
// route.
func (s *ShardedSystem) Resolve(key string) (space, shardID int, x Register, err error) {
	route, err := s.inner.Router().Resolve(key)
	if err != nil {
		return 0, 0, "", fmt.Errorf("prcc: %w", err)
	}
	return route.Space, route.Shard, route.Reg, nil
}

// Write performs a client write at replica r of the given space. It
// fails if r does not store x, the space is out of range, or the runtime
// is closed. Writes block while the space's shard inbox is full — the
// same backpressure contract as Cluster.Write.
func (s *ShardedSystem) Write(space int, r ReplicaID, x Register, v Value) error {
	return s.inner.Write(space, r, x, v)
}

// Read returns replica r's local copy of x in the given space.
func (s *ShardedSystem) Read(space int, r ReplicaID, x Register) (Value, bool) {
	return s.inner.Read(space, r, x)
}

// Sync blocks until every staged batch has been flushed and every
// in-flight batch delivered and applied, across all spaces.
func (s *ShardedSystem) Sync() { s.inner.Quiesce() }

// Check audits every space's execution against its causality oracle and
// returns an error describing the violations, if any. On a runtime
// built without ShardOptions.Audit there are no oracles and Check
// reports nothing.
func (s *ShardedSystem) Check() error {
	vs := s.inner.AuditViolations()
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, 0, len(vs))
	for _, v := range vs {
		msgs = append(msgs, v.String())
	}
	return fmt.Errorf("prcc: %d violations: %s", len(vs), strings.Join(msgs, "; "))
}

// Snapshot returns one space's per-replica register contents — the same
// shape Cluster-level state snapshots use, so a space can be compared
// against an independent single-space run.
func (s *ShardedSystem) Snapshot(space int) []map[Register]Value {
	return s.inner.StateSnapshot(space)
}

// Metrics returns the runtime's unified metrics snapshot: batching
// totals always, per-replica and per-shard breakdowns when
// ShardOptions.Metrics armed the registry. Replica counters aggregate
// across spaces (all spaces share one placement, so replica i means
// "replica i of every space"); queue gauges are per engine shard.
func (s *ShardedSystem) Metrics() Metrics { return s.inner.Metrics() }

// Close flushes staged batches, drains the engine and stops the shared
// worker pool; no goroutines outlive it. Idempotent.
func (s *ShardedSystem) Close() { s.inner.Close() }
