package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/obs"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
	"repro/internal/workload"
)

// Cluster is the live concurrent runtime over the same protocol state
// machines the deterministic runner drives: the shared worker-pool engine
// (internal/runtime) pulls messages from bounded per-replica inboxes and
// feeds them to lock-protected nodes.
//
// The engine preserves the paper's system model — reliable,
// point-to-point, NOT FIFO — without spawning a goroutine per message:
// each worker takes a uniformly random buffered message from an inbox
// (a seeded per-inbox shuffle), so delivery order is arbitrarily reordered
// even though the goroutine count stays fixed at the worker-pool size.
//
// Backpressure contract: client writes (Write, RunScript drivers) block
// while a destination inbox is at capacity, so a fast writer cannot grow
// memory without bound. Deliveries that forward messages (relaying
// protocols) enqueue above capacity rather than block — see the engine's
// Forward path.
//
// The write fanout is allocation-free in steady state: nodes emit
// envelopes referencing node-owned metadata scratch (the core.Sink
// contract), and the cluster's sink copies each Meta into a recycled
// buffer that returns to the pool once the message has been ingested at
// its destination.
type Cluster struct {
	space *Space
	eng   *rt.Engine[core.Envelope]

	opts  rt.Options
	audit bool

	// Chaos state: nil unless WithChaos was given.
	chaosPlan *rt.FaultPlan

	// Observability: reg is nil (disarmed) unless WithMetrics was given;
	// every recording call below is nil-safe so the fault-free,
	// metrics-free hot path pays a nil check, nothing more.
	metrics bool
	reg     *obs.Registry

	batches sync.Pool // *Batch

	// epoch is the reconfiguration fence: every client write holds it
	// for reading, so Reconfigure's write lock blocks new writes while
	// the old epoch drains. Deliveries never take it — a write blocked
	// on inbox backpressure inside the read section can always drain.
	epoch sync.RWMutex

	closed    atomic.Bool
	msgs      atomic.Int64
	metaBytes atomic.Int64
}

// recordSent counts messages the engine actually accepted — never the
// suffix a shutdown race dropped — so Stats stays consistent with what
// was delivered.
func (c *Cluster) recordSent(envs []core.Envelope) {
	c.msgs.Add(int64(len(envs)))
	total := int64(0)
	for i := range envs {
		total += int64(len(envs[i].Meta))
	}
	c.metaBytes.Add(total)
	if c.reg != nil {
		for i := range envs {
			c.reg.Sent(int(envs[i].From), int(envs[i].To), len(envs[i].Meta))
		}
	}
}

func (c *Cluster) getBatch() *Batch { return c.batches.Get().(*Batch) }

func (c *Cluster) putBatch(b *Batch) {
	b.Envs = b.Envs[:0]
	c.batches.Put(b)
}

// ClusterOption customizes a Cluster.
type ClusterOption func(*Cluster)

// WithMaxDelay sets the maximum artificial delivery delay (default 0).
// A delivering worker sleeps up to this long before handling a message,
// adding wall-clock jitter on top of the inbox shuffle's reordering; with
// a bounded worker pool it also throttles throughput, which is the point
// in stress tests.
func WithMaxDelay(d time.Duration) ClusterOption {
	return func(c *Cluster) { c.opts.MaxDelay = d }
}

// WithWorkers sets the delivery worker-pool size. The default is
// GOMAXPROCS but at least 2; an explicit n is used as given.
func WithWorkers(n int) ClusterOption {
	return func(c *Cluster) {
		if n > 0 {
			c.opts.Workers = n
		}
	}
}

// WithInboxCapacity bounds each replica's inbox (default 1024). Client
// writes block while a destination inbox is full.
func WithInboxCapacity(n int) ClusterOption {
	return func(c *Cluster) {
		if n > 0 {
			c.opts.InboxCapacity = n
		}
	}
}

// WithSeed seeds the per-inbox delivery shuffles (default 1). Two runs
// with the same seed still interleave differently — goroutine scheduling
// stays nondeterministic — but the seed varies which reorderings the
// shuffle explores.
func WithSeed(seed int64) ClusterOption {
	return func(c *Cluster) { c.opts.Seed = seed }
}

// WithoutAudit disables the causality oracle for runs that want no
// verdict at all. Auditing is affordable by default (one dependency
// vector per update, O(n) per check); Tracker returns nil and RunScript
// returns no violations on an unaudited cluster.
func WithoutAudit() ClusterOption {
	return func(c *Cluster) { c.audit = false }
}

// WithChaos routes every message through the engine's seeded
// fault-injection layer (loss, duplication, partitions — see
// runtime.FaultPlan) and enables the cluster's recovery controls:
// Partition/Heal and Checkpoint/Crash/Restart. A crashed replica's
// messages park at the node boundary (Space.Deliver) until Restart.
// Faults are transient, so a chaos run that heals its partitions and
// restarts its crashed replicas still satisfies the paper's
// reliable-delivery model in the limit and must pass the oracle's
// liveness audit.
func WithChaos(plan rt.FaultPlan) ClusterOption {
	return func(c *Cluster) { c.chaosPlan = &plan }
}

// WithMetrics arms the observability registry: per-replica delivery /
// stall / recheck counters, per-edge traffic counters, and engine
// inbox-depth gauges, snapshotted by Metrics. Disarmed (the default)
// the collection hooks cost one nil check on the hot path — the same
// discipline as the fault-injection layer, pinned by an alloc test and
// a gated benchmark row.
func WithMetrics() ClusterOption {
	return func(c *Cluster) { c.metrics = true }
}

// NewCluster builds and starts a live cluster for the protocol. The
// worker pool runs until Close.
func NewCluster(g *sharegraph.Graph, protocol core.Protocol, opts ...ClusterOption) (*Cluster, error) {
	c := &Cluster{audit: true}
	for _, o := range opts {
		o(c)
	}
	if c.metrics {
		c.reg = obs.New(g.NumReplicas(), g.NumReplicas())
		c.opts.Obs = c.reg
	}
	// Inject the drop-diagnostics sink before building nodes (nodes
	// capture it at construction): drops count in the registry when
	// metrics are armed, and logging is rate-limited either way.
	c.armDiag(protocol)
	sp, err := NewSpace(g, protocol, c.audit, c.reg)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.space = sp
	c.batches.New = func() any { return new(Batch).For(sp) }
	n := g.NumReplicas()
	if c.chaosPlan != nil {
		sp.rec = make([]replicaRec, n)
		c.eng = rt.NewWithFaults(n, c.opts, *c.chaosPlan, c.cloneEnv, c.deliver)
	} else {
		c.eng = rt.New(n, c.opts, c.deliver)
	}
	return c, nil
}

// armDiag injects the cluster's ingest-drop sink into protocols that
// accept one (core.DiagSettable): every drop counts in the obs registry
// when metrics are armed, and the diagnostic log line is rate-limited
// either way. Protocols without the interface keep the package default.
func (c *Cluster) armDiag(protocol core.Protocol) {
	ds, ok := protocol.(core.DiagSettable)
	if !ok {
		return
	}
	reg := c.reg // may be nil (disarmed); IngestDrop no-ops on nil
	ds.SetDiag(core.NewDiag(nil, func(r int) { reg.IngestDrop(r) }))
}

// cloneEnv deep-copies an envelope for the fault layer's duplication
// path: the original's Meta is a pooled buffer recycled after its own
// delivery, so the duplicate needs an independent copy.
func (c *Cluster) cloneEnv(env core.Envelope) core.Envelope {
	env.Meta = c.space.meta.Copy(env.Meta)
	return env
}

// Faults exposes the engine's fault injector; nil unless the cluster was
// built with WithChaos.
func (c *Cluster) Faults() *rt.FaultInjector[core.Envelope] { return c.eng.Faults() }

// Tracker exposes the oracle auditing this cluster; nil when the cluster
// was built with WithoutAudit.
func (c *Cluster) Tracker() *causality.Tracker { return c.space.Tracker() }

// Workers returns the delivery worker-pool size.
func (c *Cluster) Workers() int { return c.eng.Workers() }

// Write performs a client write at replica r, blocking while any
// destination inbox is at capacity (the backpressure contract). It fails
// for a replica outside [0,n) or a crashed one.
func (c *Cluster) Write(r sharegraph.ReplicaID, x sharegraph.Register, v core.Value) error {
	return c.send(func(b *Batch) error {
		_, err := c.space.Write(r, x, v, b)
		return err
	})
}

// Do runs f on replica r's node under its lock (Space.Do) and sends what
// f emits into out, blocking under backpressure like Write: a
// client-server request is served this way. It fails for a replica
// outside [0,n), a crashed one, or with f's error.
func (c *Cluster) Do(r sharegraph.ReplicaID, f func(n core.Node, out core.Sink) error) error {
	return c.send(func(b *Batch) error {
		return c.space.Do(r, func(n core.Node) error { return f(n, b) })
	})
}

// send stages one client operation's envelopes through op and hands
// them to the engine.
func (c *Cluster) send(op func(*Batch) error) error {
	if c.closed.Load() {
		return fmt.Errorf("cluster: closed")
	}
	// Hold the epoch fence for reading across issue AND send: Reconfigure
	// must never observe a write that issued against the old epoch but
	// has not yet reached the engine.
	c.epoch.RLock()
	defer c.epoch.RUnlock()
	b := c.getBatch()
	defer c.putBatch(b)
	if err := op(b); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	accepted := c.eng.Send(b.Envs...)
	c.recordSent(b.Envs[:accepted])
	return nil
}

// Read returns replica r's local copy of x. A crashed replica, or one
// outside [0,n), serves no reads: ok is false.
func (c *Cluster) Read(r sharegraph.ReplicaID, x sharegraph.Register) (core.Value, bool) {
	return c.space.Read(r, x)
}

// deliver handles one message at its destination node and forwards any
// relayed messages. The engine calls it from pool workers; forwards are
// enqueued before the worker decrements its own outstanding count, so the
// counter never reads zero mid-cascade.
func (c *Cluster) deliver(env core.Envelope) {
	b := c.getBatch()
	c.space.Deliver(env, b)
	accepted := c.eng.Forward(b.Envs...)
	c.recordSent(b.Envs[:accepted])
	c.putBatch(b)
}

// Quiesce blocks until no messages are in flight. Updates stuck in pending
// buffers (a liveness failure) do not count as in flight, so Quiesce
// terminates even for broken protocols.
func (c *Cluster) Quiesce() { c.eng.Quiesce() }

// Close rejects further writes, waits for all in-flight deliveries to
// drain, and stops the worker pool. It returns only after every worker
// has exited — no goroutines outlive the cluster.
func (c *Cluster) Close() {
	c.closed.Store(true)
	c.eng.Close()
}

// Outstanding returns the number of in-flight messages: buffered in
// inboxes or currently being delivered. After Close it is zero.
func (c *Cluster) Outstanding() int { return c.eng.Outstanding() }

// PendingTotal sums buffered-but-unapplied updates across replicas.
func (c *Cluster) PendingTotal() int { return c.space.PendingTotal() }

// StateSnapshot returns each replica's current register contents: one map
// per replica covering the registers it genuinely stores. Call after
// Quiesce for a stable snapshot.
func (c *Cluster) StateSnapshot() []map[sharegraph.Register]core.Value { return c.space.State() }

// MessagesSent returns the number of messages dispatched so far.
func (c *Cluster) MessagesSent() int64 { return c.msgs.Load() }

// MetaBytes returns total metadata bytes dispatched so far.
func (c *Cluster) MetaBytes() int64 { return c.metaBytes.Load() }

// Metrics snapshots the cluster in the unified observability schema.
// The legacy totals (messages, metadata bytes) are always present; the
// per-replica and per-edge breakdowns require WithMetrics. Safe to call concurrently with a running workload.
func (c *Cluster) Metrics() obs.Snapshot {
	s := c.reg.Snapshot()
	s.Runtime = "cluster"
	s.Messages = c.msgs.Load()
	s.MetaBytes = c.metaBytes.Load()
	s.Outstanding = int64(c.eng.Outstanding())
	if f := c.eng.Faults(); f != nil {
		s.Dropped = int64(f.Dropped())
		s.Duped = int64(f.Duped())
		s.Parked += int64(f.ParkedMessages() + c.space.Parked())
	}
	if len(s.Replicas) == len(c.space.nodes) {
		for r := range s.Replicas {
			p := int64(c.space.Pending(r))
			s.Replicas[r].Parked = p
			s.Parked += p
		}
	} else {
		s.Parked += int64(c.PendingTotal())
	}
	return s
}

// RunScript executes a workload concurrently: one driver goroutine per
// replica issues that replica's operations in script order (blocking
// under inbox backpressure), then the cluster quiesces. Returns the
// oracle verdicts (including liveness); nil on an unaudited cluster.
func (c *Cluster) RunScript(script workload.Script) []causality.Violation {
	queues := make([][]workload.Op, len(c.space.nodes))
	for _, op := range script {
		queues[op.Replica] = append(queues[op.Replica], op)
	}
	c.drive(queues, new(atomic.Int64))
	c.Quiesce()
	return c.space.Audit()
}

// drive runs per-replica op queues through Drive. A write whose Val is
// zero takes the next value of val. Write errors can only come from a
// malformed script or a crashed replica; generators produce neither.
func (c *Cluster) drive(queues [][]workload.Op, val *atomic.Int64) {
	Drive(queues, func(op workload.Op) {
		if op.IsRead {
			c.Read(op.Replica, op.Reg)
			return
		}
		v := core.Value(op.Val)
		if v == 0 {
			v = core.Value(val.Add(1))
		}
		_ = c.Write(op.Replica, op.Reg, v)
	})
}
