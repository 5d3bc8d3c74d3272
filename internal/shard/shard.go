// Package shard is the multi-tenant scaling layer between the protocol
// and the worker-pool engine: it hosts thousands of independent register
// spaces — each a sim.Space, the shared in-process host of one space's
// core.Node state machines over one shared placement graph, its locks,
// update-ID issue and optional causality oracle — multiplexed onto a
// fixed pool of delivery workers.
//
// The paper (conf_podc_XiangV19) bounds one space at ≤64 replicas; fleet
// scale comes from multiplexing many small spaces, not growing one. Two
// mechanisms make the multiplexing cheap:
//
//   - Routing: every space is statically placed on a shard
//     (space mod Shards), and each shard is one bounded inbox of the
//     shared runtime.Engine. The engine's Send/Forward contract carries
//     over unchanged: client writes block while their shard's inbox is
//     full; deliveries that emit follow-on messages never block.
//
//   - Envelope batching: emitted envelopes are staged in a per-shard
//     outbox and travel as one batch message — one inbox push carries
//     many updates, amortizing per-message dispatch. Batches flush on size
//     (FlushSize envelopes) and on idle (a flusher sweeps outboxes every
//     FlushInterval, bounding staging latency). Batch buffers and
//     metadata are pooled, so the steady-state hot path allocates
//     nothing.
//
// When batching loses: a latency-sensitive, low-rate workload pays up
// to FlushInterval of staging delay per hop for no amortization win —
// set FlushSize to 1 to degenerate into the unbatched per-envelope path.
package shard

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/obs"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options configures a Runtime. The zero value of every field selects
// the documented default.
type Options struct {
	// Spaces is the number of independent register spaces (required,
	// ≥ 1).
	Spaces int
	// Shards is the number of engine inboxes the spaces multiplex onto
	// (default min(Spaces, 4×workers)). Space s lands on shard
	// s mod Shards.
	Shards int
	// Workers is the delivery worker-pool size (engine default:
	// GOMAXPROCS, at least 2).
	Workers int
	// InboxCapacity bounds each shard's inbox in batches (engine
	// default 1024). Client writes block while their shard is full.
	InboxCapacity int
	// FlushSize is the envelope count that flushes a staged batch
	// (default 32). 1 disables batching.
	FlushSize int
	// FlushInterval bounds how long a partial batch may sit staged
	// before the idle flusher pushes it (default 1ms).
	FlushInterval time.Duration
	// Seed drives the engine's per-inbox delivery shuffles.
	Seed int64
	// Audit runs one causality oracle per space. Off by default: at
	// thousands of spaces the oracles dominate memory, and the sharded
	// differential test pins correctness against audited single-space
	// runs instead.
	Audit bool
	// Metrics arms the observability registry: per-replica delivery
	// counters (aggregated across spaces), per-edge traffic, per-shard
	// inbox-depth gauges and batch-size stats, snapshotted by Metrics.
	// Disarmed (default) the hooks cost one nil check.
	Metrics bool
}

func (o Options) withDefaults(workers int) Options {
	if o.Shards <= 0 {
		o.Shards = min(o.Spaces, 4*workers)
	}
	if o.Shards > o.Spaces {
		o.Shards = o.Spaces
	}
	if o.FlushSize <= 0 {
		o.FlushSize = 32
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = time.Millisecond
	}
	return o
}

// item is one envelope of a batch, tagged with its register space.
type item struct {
	space int32
	env   core.Envelope
}

// batch is the engine message: all envelopes staged for one shard since
// the last flush. Dest is the shard, so per-shard inboxes bound batches,
// not envelopes — the overshoot is at most FlushSize-1 envelopes per
// slot.
type batch struct {
	shard int
	items []item
}

// Dest implements runtime.Message.
func (b *batch) Dest() int { return b.shard }

// outbox is one shard's staging buffer: envelopes accumulate here until
// a size or idle flush detaches the batch and hands it to the engine.
type outbox struct {
	mu  sync.Mutex
	cur *batch // nil when nothing is staged
}

// Runtime hosts Options.Spaces independent space instances multiplexed
// over one engine. All spaces share one placement graph and protocol;
// their node sets, locks and (optional) oracles are per space.
type Runtime struct {
	g      *sharegraph.Graph
	opts   Options
	spaces []*sim.Space

	eng     *rt.Engine[*batch]
	out     []outbox
	batches sync.Pool // *batch
	sinks   sync.Pool // *spaceSink

	flushDone chan struct{}
	flushWG   sync.WaitGroup

	// live counts batches from their creation in an outbox until their
	// delivery or rejection ends. A delivery stages its follow-ons (new
	// batches) before its own batch stops counting, so zero means nothing
	// is staged, detached by a flush, queued or being delivered.
	live     atomic.Int64
	closed   atomic.Bool
	msgs     atomic.Int64
	nbatches atomic.Int64
	metaB    atomic.Int64

	// reg is nil unless Options.Metrics armed it; all recording calls
	// below are nil-safe. Replica counters aggregate across spaces
	// (space s, replica j → replica j); queue gauges are per shard.
	reg *obs.Registry
}

// New builds and starts a sharded runtime: protocol.NewNodes() is
// instantiated once per space, the engine's worker pool starts, and the
// idle flusher begins sweeping outboxes. Callers must Close.
func New(g *sharegraph.Graph, protocol core.Protocol, opts Options) (*Runtime, error) {
	if opts.Spaces <= 0 {
		return nil, fmt.Errorf("shard: space count %d, need at least one", opts.Spaces)
	}
	engOpts := rt.Options{
		Workers:       opts.Workers,
		InboxCapacity: opts.InboxCapacity,
		Seed:          opts.Seed,
	}
	r := &Runtime{g: g, flushDone: make(chan struct{})}
	r.batches.New = func() any { return &batch{} }
	r.sinks.New = func() any { return &spaceSink{} }
	// The shard default derives from the resolved worker count, so
	// mirror the engine's worker default before sizing its inboxes.
	workers := opts.Workers
	if workers <= 0 {
		workers = max(2, goruntime.GOMAXPROCS(0))
	}
	r.opts = opts.withDefaults(workers)
	r.out = make([]outbox, r.opts.Shards)
	if r.opts.Metrics {
		r.reg = obs.New(g.NumReplicas(), r.opts.Shards)
		engOpts.Obs = r.reg
	}
	r.spaces = make([]*sim.Space, opts.Spaces)
	for s := range r.spaces {
		sp, err := sim.NewSpace(g, protocol, opts.Audit, r.reg)
		if err != nil {
			return nil, fmt.Errorf("shard: space %d: %w", s, err)
		}
		r.spaces[s] = sp
	}
	r.eng = rt.New(r.opts.Shards, engOpts, r.deliver)
	r.flushWG.Add(1)
	go r.flusher()
	return r, nil
}

// Graph returns the shared placement graph.
func (r *Runtime) Graph() *sharegraph.Graph { return r.g }

// Spaces returns the hosted space count.
func (r *Runtime) Spaces() int { return len(r.spaces) }

// Shards returns the resolved shard count.
func (r *Runtime) Shards() int { return r.opts.Shards }

// Workers returns the delivery worker-pool size.
func (r *Runtime) Workers() int { return r.eng.Workers() }

// Router returns the flat-key router for this runtime's geometry.
func (r *Runtime) Router() Router {
	return Router{Spaces: r.Spaces(), Shards: r.opts.Shards}
}

// spaceSink is the core.Sink of one node call (sim.Batch copies each
// Meta through the space's pool inside the node's lock); stage moves
// its envelopes into the space's shard outbox after the lock is
// released. one and full are pooled scratch so the flush path performs
// no allocation.
type spaceSink struct {
	sim.Batch
	full []*batch
	one  [1]*batch
}

func (r *Runtime) getSink() *spaceSink { return r.sinks.Get().(*spaceSink) }

func (r *Runtime) putSink(s *spaceSink) {
	s.Envs = s.Envs[:0]
	s.full = s.full[:0]
	s.one[0] = nil
	r.sinks.Put(s)
}

func (r *Runtime) getBatch(shard int) *batch {
	r.live.Add(1)
	b := r.batches.Get().(*batch)
	b.shard = shard
	return b
}

func (r *Runtime) putBatch(b *batch) {
	// Zero the items so the pooled batch does not pin recycled Meta
	// buffers or register strings.
	clear(b.items)
	b.items = b.items[:0]
	r.batches.Put(b)
	r.live.Add(-1)
}

// stage appends the sink's staged envelopes to the space's shard outbox
// and pushes every batch that reached FlushSize. backpressure selects
// the engine contract for those pushes: Send (blocking, client path) or
// Forward (worker path).
func (r *Runtime) stage(s *spaceSink, space int, backpressure bool) {
	if len(s.Envs) == 0 {
		return
	}
	sh := space % r.opts.Shards
	ob := &r.out[sh]
	s.full = s.full[:0]
	ob.mu.Lock()
	for _, env := range s.Envs {
		if ob.cur == nil {
			ob.cur = r.getBatch(sh)
		}
		ob.cur.items = append(ob.cur.items, item{space: int32(space), env: env})
		if len(ob.cur.items) >= r.opts.FlushSize {
			s.full = append(s.full, ob.cur)
			ob.cur = nil
		}
	}
	ob.mu.Unlock()
	// Pushes happen outside every lock: Send may block on a full inbox,
	// and a worker needing the outbox (or the node) must stay free to
	// drain it.
	for i, b := range s.full {
		r.push(s, b, backpressure)
		s.full[i] = nil
	}
	s.full = s.full[:0]
	s.Envs = s.Envs[:0]
}

// push hands one detached batch to the engine. A batch the engine drops
// (shutdown race) is recycled here, metadata included, so the pool's
// leak accounting stays balanced.
func (r *Runtime) push(s *spaceSink, b *batch, backpressure bool) {
	n := len(b.items)
	bytes := int64(0)
	for i := range b.items {
		bytes += int64(len(b.items[i].env.Meta))
	}
	// Per-edge attribution must happen before the engine sees the batch:
	// once accepted, a worker may deliver and recycle it concurrently.
	// The one batch a shutdown race rejects is therefore over-counted in
	// the registry (not in the authoritative totals Metrics reports) —
	// harmless for monitoring, unsafe to fix by reading b.items later.
	if r.reg != nil {
		r.reg.Batch(n)
		for i := range b.items {
			env := &b.items[i].env
			r.reg.Sent(int(env.From), int(env.To), len(env.Meta))
		}
	}
	s.one[0] = b
	var accepted int
	if backpressure {
		accepted = r.eng.Send(s.one[:]...)
	} else {
		accepted = r.eng.Forward(s.one[:]...)
	}
	s.one[0] = nil
	if accepted == 0 {
		for i := range b.items {
			r.spaces[b.items[i].space].Recycle(b.items[i].env.Meta)
		}
		r.putBatch(b)
		return
	}
	r.nbatches.Add(1)
	r.msgs.Add(int64(n))
	r.metaB.Add(bytes)
}

// deliver unpacks one batch: each envelope is ingested at its space's
// destination node, applied updates are reported to the space's oracle,
// and follow-on emits are staged back through the outbox (Forward
// contract — a delivering worker never blocks).
func (r *Runtime) deliver(b *batch) {
	s := r.getSink()
	for i := range b.items {
		sp := r.spaces[b.items[i].space]
		sp.Deliver(b.items[i].env, s.For(sp))
		r.stage(s, int(b.items[i].space), false)
	}
	r.putBatch(b)
	r.putSink(s)
}

// Write performs a client write at replica rep of space, blocking while
// the space's shard inbox is at capacity (the backpressure contract).
// The write is staged: it reaches the engine when its batch fills or the
// idle flusher sweeps, whichever is first.
func (r *Runtime) Write(space int, rep sharegraph.ReplicaID, x sharegraph.Register, v core.Value) error {
	if r.closed.Load() {
		return fmt.Errorf("shard: closed")
	}
	if space < 0 || space >= len(r.spaces) {
		return fmt.Errorf("shard: space %d outside [0,%d)", space, len(r.spaces))
	}
	s := r.getSink()
	defer r.putSink(s)
	sp := r.spaces[space]
	if _, err := sp.Write(rep, x, v, s.For(sp)); err != nil {
		return fmt.Errorf("shard: space %d: %w", space, err)
	}
	r.stage(s, space, true)
	return nil
}

// Read returns replica rep's local copy of x in space; ok is false for a
// space or replica out of range.
func (r *Runtime) Read(space int, rep sharegraph.ReplicaID, x sharegraph.Register) (core.Value, bool) {
	if space < 0 || space >= len(r.spaces) {
		return 0, false
	}
	return r.spaces[space].Read(rep, x)
}

// flusher is the idle-flush loop: every FlushInterval it detaches every
// staged batch and forwards it, bounding how long an envelope can sit in
// an outbox regardless of traffic.
func (r *Runtime) flusher() {
	defer r.flushWG.Done()
	t := time.NewTicker(r.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-r.flushDone:
			return
		case <-t.C:
			r.flushAll()
		}
	}
}

// flushAll detaches and forwards every outbox's staged batch.
func (r *Runtime) flushAll() {
	s := r.getSink()
	for i := range r.out {
		ob := &r.out[i]
		ob.mu.Lock()
		b := ob.cur
		ob.cur = nil
		ob.mu.Unlock()
		if b != nil {
			r.push(s, b, false)
		}
	}
	r.putSink(s)
}

// Quiesce blocks until no messages are in flight anywhere: no batch is
// live. Batching makes this a fixpoint loop — a draining delivery may
// stage new envelopes after a sweep, and the idle flusher may hold a
// batch it detached but has not pushed yet — so Quiesce alternates
// flushing and engine quiescence until no batch is left. Callers stop
// issuing writes first (updates stuck in protocol pending buffers do not
// count, as with the engine's own Quiesce).
func (r *Runtime) Quiesce() {
	for {
		r.flushAll()
		r.eng.Quiesce()
		if r.live.Load() == 0 {
			return
		}
		goruntime.Gosched()
	}
}

// Close rejects further writes, stops the idle flusher, pushes staged
// leftovers, and shuts the engine down after the drain. No goroutines
// outlive the runtime.
func (r *Runtime) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	close(r.flushDone)
	r.flushWG.Wait()
	r.flushAll()
	r.eng.Close()
}

// AuditViolations runs every space oracle's liveness check and returns
// all violations. Empty (and cheap) when auditing is off.
func (r *Runtime) AuditViolations() []causality.Violation {
	var out []causality.Violation
	for _, sp := range r.spaces {
		out = append(out, sp.Audit()...)
	}
	return out
}

// StateSnapshot returns space's per-replica register contents — the
// same shape sim.Cluster.StateSnapshot produces, so sharded and
// single-space runs compare directly; nil for a space out of range.
// Call after Quiesce.
func (r *Runtime) StateSnapshot(space int) []map[sharegraph.Register]core.Value {
	if space < 0 || space >= len(r.spaces) {
		return nil
	}
	return r.spaces[space].State()
}

// Metrics snapshots the runtime in the unified observability schema.
// Legacy totals (batches, envelopes, metadata bytes) are always
// present; per-replica and per-edge breakdowns require Options.Metrics.
// Replica counters aggregate across all spaces; engine inbox gauges
// appear under Snapshot.Queues, indexed by shard (the runtime's queue
// index space is shards, not replicas).
func (r *Runtime) Metrics() obs.Snapshot {
	s := r.reg.Snapshot()
	s.Runtime = "sharded"
	s.Envelopes = r.msgs.Load()
	s.Messages = r.msgs.Load()
	s.Batches = r.nbatches.Load()
	s.MetaBytes = r.metaB.Load()
	s.Outstanding = int64(r.eng.Outstanding())
	return s
}

// RunMulti executes a multi-tenant workload over a bounded driver pool:
// each (space, replica) client is pinned to one driver goroutine, so
// per-replica program order is preserved within every space while the
// goroutine count stays fixed at drivers (default: the worker count).
// Returns the aggregated audit violations after quiescing (nil without
// auditing).
func (r *Runtime) RunMulti(ms *workload.MultiScript, drivers int) []causality.Violation {
	if drivers <= 0 {
		drivers = r.eng.Workers()
	}
	queues := make([][]workload.MultiOp, drivers)
	for _, mo := range ms.Ops {
		d := (mo.Space*31 + int(mo.Op.Replica)) % drivers
		queues[d] = append(queues[d], mo)
	}
	var val atomic.Int64
	sim.Drive(queues, func(mo workload.MultiOp) {
		if mo.Op.IsRead {
			r.Read(mo.Space, mo.Op.Replica, mo.Op.Reg)
			return
		}
		v := core.Value(mo.Op.Val)
		if v == 0 {
			v = core.Value(val.Add(1))
		}
		_ = r.Write(mo.Space, mo.Op.Replica, mo.Op.Reg, v)
	})
	r.Quiesce()
	return r.AuditViolations()
}
