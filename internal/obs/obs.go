// Package obs is the repository's observability layer: a dependency-free
// registry of atomic counters and gauges shared by every runtime (the
// in-process cluster, the client-server live system, the sharded
// multi-space runtime, and the TCP wire node) and an HTTP/JSON status
// endpoint. It counts deliveries, applies, stalls, rechecks and ingest
// drops per replica; messages, metadata bytes and injected faults per
// edge; engine queue depth and peak; and shard batches.
//
// The registry follows the fault-injection layer's arming discipline: a
// nil *Registry is the disarmed state, every recording method is a
// nil-receiver no-op, and call sites are unconditional — the disarmed
// hot path costs one nil check and zero allocations (pinned by an alloc
// test and a gated benchmark row, like the PR 6 chaos hooks). Armed, all
// counters are lock-free atomics safe for concurrent writers, and
// Snapshot may be called at any time from any goroutine (/statusz
// scrapes race against delivery workers by design).
//
// Two index spaces coexist: replica indices (protocol-level attribution
// — delivered, applied, stalls, per-edge traffic) and engine queue
// indices (inbox depth and peak). For the cluster and client-server
// runtimes they coincide; the sharded runtime keys its engine queues by
// shard, so the registry keeps the two arrays separate instead of
// guessing.
package obs

import (
	"fmt"
	"sync/atomic"
)

// Registry collects counters for one runtime: per-replica protocol
// counters, per-edge (ordered replica pair) traffic counters, and
// per-engine-queue depth gauges. The zero value is not useful — use New;
// a nil Registry is the disarmed state and all methods no-op on it.
type Registry struct {
	replicas int
	queues   int
	rep      []repCounters
	edge     []edgeCounters // replicas*replicas, indexed from*replicas+to
	queue    []queueGauge

	batches   atomic.Int64
	batchEnvs atomic.Int64
	batchMax  atomic.Int64
}

type repCounters struct {
	delivered   atomic.Int64 // messages delivered at this replica
	applied     atomic.Int64 // updates applied (meta-only and buffered-only excluded)
	stalls      atomic.Int64 // deliveries that applied nothing: a dependency stall
	rechecks    atomic.Int64 // previously buffered updates released by a later arrival
	ingestDrops atomic.Int64 // corrupt/invalid envelopes rejected before buffering
}

type edgeCounters struct {
	sent          atomic.Int64
	bytes         atomic.Int64 // metadata bytes sent on this edge
	delivered     atomic.Int64
	dropped       atomic.Int64 // fault injection: diverted to the retransmit queue or lost
	duped         atomic.Int64 // fault injection: duplicate deliveries
	retransmitted atomic.Int64 // fault injection: retransmit re-sends
}

type queueGauge struct {
	depth atomic.Int64
	peak  atomic.Int64
}

// New builds an armed registry for a runtime with the given number of
// protocol replicas and engine destination queues. queues may be zero
// when the runtime does not expose engine inboxes (the wire node).
func New(replicas, queues int) *Registry {
	if replicas < 0 {
		replicas = 0
	}
	if queues < 0 {
		queues = 0
	}
	return &Registry{
		replicas: replicas,
		queues:   queues,
		rep:      make([]repCounters, replicas),
		edge:     make([]edgeCounters, replicas*replicas),
		queue:    make([]queueGauge, queues),
	}
}

// Replicas returns the replica count the registry was sized for (0 on a
// nil registry).
func (r *Registry) Replicas() int {
	if r == nil {
		return 0
	}
	return r.replicas
}

func (r *Registry) edgeAt(from, to int) *edgeCounters {
	if from < 0 || from >= r.replicas || to < 0 || to >= r.replicas {
		return nil
	}
	return &r.edge[from*r.replicas+to]
}

// QueueDepth records the instantaneous depth of engine queue q after an
// enqueue or a take, tracking the high-water mark. Called by the engine
// with its inbox mutex held, so it must stay cheap.
func (r *Registry) QueueDepth(q, depth int) {
	if r == nil || q < 0 || q >= r.queues {
		return
	}
	g := &r.queue[q]
	g.depth.Store(int64(depth))
	for {
		peak := g.peak.Load()
		if int64(depth) <= peak || g.peak.CompareAndSwap(peak, int64(depth)) {
			return
		}
	}
}

// MetaOnly is the applied-count sentinel for Deliver: the delivery
// carried metadata only and applies nothing by design, so it counts as
// delivered but as neither stall nor apply.
const MetaOnly = -1

// Deliver records one message delivered at replica `to` from replica
// `from` (from < 0 skips edge attribution), which applied `applied`
// buffered-or-fresh updates. applied == 0 is a dependency stall (the
// arrival buffered waiting for its causal past — the observable texture
// of false dependencies); applied > 1 means the arrival released
// applied-1 previously parked updates on recheck; applied < 0 (see
// MetaOnly) marks a delivery that applies nothing by design, counted as
// delivered but neither stall nor apply.
func (r *Registry) Deliver(from, to, applied int) {
	if r == nil || to < 0 || to >= r.replicas {
		return
	}
	c := &r.rep[to]
	c.delivered.Add(1)
	switch {
	case applied == 0:
		c.stalls.Add(1)
	case applied > 0:
		c.applied.Add(int64(applied))
		if applied > 1 {
			c.rechecks.Add(int64(applied - 1))
		}
	}
	if e := r.edgeAt(from, to); e != nil {
		e.delivered.Add(1)
	}
}

// Sent records one message accepted for sending on edge from→to carrying
// metaBytes bytes of timestamp metadata.
func (r *Registry) Sent(from, to, metaBytes int) {
	if r == nil {
		return
	}
	if e := r.edgeAt(from, to); e != nil {
		e.sent.Add(1)
		e.bytes.Add(int64(metaBytes))
	}
}

// Dropped records a fault-injected loss (or divert-to-retransmit) on
// edge from→to.
func (r *Registry) Dropped(from, to int) {
	if r == nil {
		return
	}
	if e := r.edgeAt(from, to); e != nil {
		e.dropped.Add(1)
	}
}

// Duped records a fault-injected duplicate delivery on edge from→to.
func (r *Registry) Duped(from, to int) {
	if r == nil {
		return
	}
	if e := r.edgeAt(from, to); e != nil {
		e.duped.Add(1)
	}
}

// Retransmitted records a retransmit re-send on edge from→to.
func (r *Registry) Retransmitted(from, to int) {
	if r == nil {
		return
	}
	if e := r.edgeAt(from, to); e != nil {
		e.retransmitted.Add(1)
	}
}

// IngestDrop records one envelope rejected at replica rep before
// buffering: corrupt metadata, an out-of-range sender, or a wrong-length
// timestamp. Protocol nodes report these through core.Diag instead of
// logging unconditionally; the counter is the durable signal.
func (r *Registry) IngestDrop(rep int) {
	if r == nil || rep < 0 || rep >= r.replicas {
		return
	}
	r.rep[rep].ingestDrops.Add(1)
}

// Batch records one flushed shard batch of the given envelope count,
// tracking the largest batch seen.
func (r *Registry) Batch(envelopes int) {
	if r == nil {
		return
	}
	r.batches.Add(1)
	r.batchEnvs.Add(int64(envelopes))
	for {
		max := r.batchMax.Load()
		if int64(envelopes) <= max || r.batchMax.CompareAndSwap(max, int64(envelopes)) {
			return
		}
	}
}

// ReplicaMetrics is one replica's protocol-level counters in a Snapshot.
type ReplicaMetrics struct {
	Delivered   int64 `json:"delivered"`
	Applied     int64 `json:"applied"`
	Stalls      int64 `json:"stalls"`
	Rechecks    int64 `json:"rechecks"`
	IngestDrops int64 `json:"ingest_drops,omitempty"` // envelopes rejected before buffering
	Parked      int64 `json:"parked"`                 // pending-buffered updates at snapshot time
	InboxDepth  int64 `json:"inbox_depth"`            // engine queue depth (when queues == replicas)
	InboxPeak   int64 `json:"inbox_peak"`
}

// QueueMetrics is one engine destination queue's gauge pair in a
// Snapshot. Present only when the runtime's queue index space differs
// from its replica index space (the sharded runtime, where queues are
// shards); otherwise the gauges fold into ReplicaMetrics.
type QueueMetrics struct {
	Depth int64 `json:"depth"`
	Peak  int64 `json:"peak"`
}

// EdgeMetrics is one ordered replica pair's traffic counters in a
// Snapshot.
type EdgeMetrics struct {
	Sent          int64 `json:"sent"`
	Bytes         int64 `json:"bytes"`
	Delivered     int64 `json:"delivered"`
	Dropped       int64 `json:"dropped,omitempty"`
	Duped         int64 `json:"duped,omitempty"`
	Retransmitted int64 `json:"retransmitted,omitempty"`
}

func (e EdgeMetrics) zero() bool {
	return e == EdgeMetrics{}
}

// Snapshot is the unified metrics schema every runtime returns (exposed
// publicly as prcc.Metrics) and the payload of the /statusz endpoint.
// The legacy totals mirror the values the old per-runtime Stats()
// tuples returned and are filled by the runtime even when the registry
// is disarmed; the per-replica and per-edge breakdowns are present only
// when metrics collection is armed.
type Snapshot struct {
	// Runtime identifies the producer: "cluster", "clientserver",
	// "sharded", or "wire".
	Runtime string `json:"runtime,omitempty"`

	// Legacy totals (superset of the three retired Stats() tuples).
	Messages    int64 `json:"messages"`
	MetaBytes   int64 `json:"meta_bytes"`
	Updates     int64 `json:"updates,omitempty"`
	Batches     int64 `json:"batches,omitempty"`
	Envelopes   int64 `json:"envelopes,omitempty"`
	MaxBatch    int64 `json:"max_batch,omitempty"`
	Outstanding int64 `json:"outstanding,omitempty"`
	Parked      int64 `json:"parked,omitempty"`
	Dropped     int64 `json:"dropped,omitempty"`
	Duped       int64 `json:"duped,omitempty"`

	Replicas []ReplicaMetrics       `json:"replicas,omitempty"`
	Queues   []QueueMetrics         `json:"queues,omitempty"`
	Edges    map[string]EdgeMetrics `json:"edges,omitempty"`
}

// EdgeKey is the Snapshot.Edges map key for edge from→to.
func EdgeKey(from, to int) string { return fmt.Sprintf("%d->%d", from, to) }

// Snapshot materializes the registry's current counters. Counters are
// read individually with atomic loads, so a snapshot taken mid-run is
// internally consistent per counter but not across counters — fine for
// monitoring, by design. A nil registry yields a zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.Batches = r.batches.Load()
	s.Envelopes = r.batchEnvs.Load()
	s.MaxBatch = r.batchMax.Load()
	if r.replicas > 0 {
		s.Replicas = make([]ReplicaMetrics, r.replicas)
		for i := range s.Replicas {
			c := &r.rep[i]
			s.Replicas[i] = ReplicaMetrics{
				Delivered:   c.delivered.Load(),
				Applied:     c.applied.Load(),
				Stalls:      c.stalls.Load(),
				Rechecks:    c.rechecks.Load(),
				IngestDrops: c.ingestDrops.Load(),
			}
			if r.queues == r.replicas {
				s.Replicas[i].InboxDepth = r.queue[i].depth.Load()
				s.Replicas[i].InboxPeak = r.queue[i].peak.Load()
			}
		}
	}
	if r.queues != r.replicas && r.queues > 0 {
		s.Queues = make([]QueueMetrics, r.queues)
		for i := range s.Queues {
			s.Queues[i] = QueueMetrics{Depth: r.queue[i].depth.Load(), Peak: r.queue[i].peak.Load()}
		}
	}
	for from := 0; from < r.replicas; from++ {
		for to := 0; to < r.replicas; to++ {
			c := &r.edge[from*r.replicas+to]
			e := EdgeMetrics{
				Sent:          c.sent.Load(),
				Bytes:         c.bytes.Load(),
				Delivered:     c.delivered.Load(),
				Dropped:       c.dropped.Load(),
				Duped:         c.duped.Load(),
				Retransmitted: c.retransmitted.Load(),
			}
			if e.zero() {
				continue
			}
			if s.Edges == nil {
				s.Edges = make(map[string]EdgeMetrics)
			}
			s.Edges[EdgeKey(from, to)] = e
		}
	}
	return s
}
