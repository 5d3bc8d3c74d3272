// Package runtime is the shared live delivery engine behind both of the
// paper's deployment shapes: the replica cluster (internal/sim.Cluster,
// Section 3.3) and the client-server architecture
// (internal/clientserver.LiveSystem, Appendix E). A fixed pool of workers
// pulls messages from bounded per-destination inboxes and hands each one
// to a caller-supplied deliver callback, so the goroutine count is the
// worker-pool size regardless of traffic — never one goroutine per
// message.
//
// The engine realizes the paper's system model — reliable, point-to-point,
// NOT FIFO — by seeded shuffle: each delivery takes a uniformly random
// buffered message from the destination's inbox, so delivery order is
// arbitrarily reordered even though the goroutine count stays fixed.
//
// Backpressure contract: Send (the client-operation path) blocks while a
// destination inbox is at capacity, so a fast writer cannot grow memory
// without bound. Forward (the worker path — messages produced while
// delivering another message) enqueues above capacity instead: a worker
// that blocked on a full inbox could deadlock the pool, and the bounded
// worker count already bounds the transient overshoot to one fanout per
// worker.
package runtime

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Message is anything the engine can route: it names its destination
// inbox. core.Envelope implements it.
type Message interface {
	Dest() int
}

// Options configures an Engine. The zero value selects the defaults
// documented per field.
type Options struct {
	// Workers is the delivery worker-pool size. The default (zero) is
	// GOMAXPROCS but at least 2; an explicit count is used as given.
	Workers int
	// InboxCapacity bounds each destination's inbox (default 1024). Send
	// blocks while a destination inbox is full.
	InboxCapacity int
	// MaxDelay adds an artificial per-delivery delay of up to this
	// duration (default 0). Reordering does not need it — the inbox
	// shuffle reorders regardless — but stress tests use it to hold
	// messages in flight longer.
	MaxDelay time.Duration
	// Seed drives the per-inbox delivery shuffles (default 1).
	Seed int64
	// Obs, when non-nil, arms metrics collection at the engine boundary:
	// the engine keeps the registry's per-destination inbox-depth gauges
	// current, and the fault layer attributes its drop/dup/retransmit
	// lotteries per edge. Disarmed (nil, the default) the hooks cost one
	// nil check — the same discipline as the fault-injection layer.
	Obs *obs.Registry
}

// withDefaults resolves zero fields to their documented defaults.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = max(2, runtime.GOMAXPROCS(0))
	}
	if o.InboxCapacity <= 0 {
		o.InboxCapacity = 1024
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Engine is the worker-pool delivery engine. Workers run from New until
// Close; deliver callbacks execute outside the engine lock and may call
// Forward to enqueue follow-on messages.
type Engine[M Message] struct {
	deliver  func(M)
	workers  int
	capacity int
	maxDelay time.Duration
	seed     int64
	seq      atomic.Uint64 // per-delivery counter driving delay jitter

	// mu guards the inboxes, the ready queue and the lifecycle flags.
	// Buffer operations under it are O(1); delivery work happens outside
	// it in the caller's deliver callback.
	mu        sync.Mutex
	workAvail *sync.Cond // a ready entry was pushed, or shutdown began
	spaceCond *sync.Cond // an inbox crossed back below capacity
	idleCond  *sync.Cond // outstanding hit zero
	inboxes   []inbox[M]
	ready     []int // non-empty inboxes, FIFO, deduplicated
	readyHead int
	// outstanding counts messages buffered in inboxes plus messages a
	// worker is currently delivering (a delivery's forwards are enqueued
	// before its own count drops, so the counter never dips to zero while
	// causally-produced work remains).
	outstanding int
	stopping    bool // workers exit once the ready queue is empty
	wg          sync.WaitGroup

	// faults, when non-nil, intercepts every enqueue — the seeded
	// fault-injection layer (see fault.go). Set once at construction
	// (NewWithFaults) and never mutated, so the disabled path costs one
	// nil check.
	faults *FaultInjector[M]
	// obs, when non-nil, receives inbox-depth gauge updates (see
	// Options.Obs). Set once at construction and never mutated.
	obs *obs.Registry
}

// inbox buffers in-flight messages destined for one inbox index. Guarded
// by Engine.mu.
type inbox[M Message] struct {
	buf []M
	rng *rand.Rand // seeded shuffle: which buffered message delivers next
	// queued marks the destination as present in the ready queue, keeping
	// at most one entry per destination there.
	queued bool
}

// New builds and starts an engine with one inbox per destination. The
// worker pool runs until Close; each worker hands messages to deliver.
func New[M Message](destinations int, opts Options, deliver func(M)) *Engine[M] {
	opts = opts.withDefaults()
	e := &Engine[M]{
		deliver:  deliver,
		workers:  opts.Workers,
		capacity: opts.InboxCapacity,
		maxDelay: opts.MaxDelay,
		seed:     opts.Seed,
		obs:      opts.Obs,
	}
	e.workAvail = sync.NewCond(&e.mu)
	e.spaceCond = sync.NewCond(&e.mu)
	e.idleCond = sync.NewCond(&e.mu)
	e.inboxes = make([]inbox[M], destinations)
	for r := range e.inboxes {
		// Distinct odd multipliers decorrelate the per-inbox streams
		// derived from one user-facing seed.
		e.inboxes[r].rng = rand.New(rand.NewSource(e.seed + int64(r+1)*0x4f1bdcdcbfa53e0b))
	}
	e.wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		go e.worker()
	}
	return e
}

// NewWithFaults builds and starts an engine whose send/forward boundary
// runs through a seeded fault-injection layer: every message is subject
// to the plan's loss/duplication lottery and to the injector's runtime
// partition controls. clone must return an independently deliverable
// copy of a message (deep-copying any pooled buffers); nil disables
// duplication. Both deployment shapes — the replica cluster and the
// client-server system — inherit fault injection through this one
// boundary.
func NewWithFaults[M Message](destinations int, opts Options, plan FaultPlan, clone func(M) M, deliver func(M)) *Engine[M] {
	e := New(destinations, opts, deliver)
	e.faults = newFaultInjector(e, plan, clone)
	go e.faults.pump()
	return e
}

// Faults returns the engine's fault injector, or nil when the engine
// was built without one.
func (e *Engine[M]) Faults() *FaultInjector[M] { return e.faults }

// Workers returns the delivery worker-pool size.
func (e *Engine[M]) Workers() int { return e.workers }

// Send files messages into their destination inboxes, blocking while a
// destination inbox is at capacity — the backpressure contract for client
// operations. Messages sent after shutdown has drained the engine are
// dropped: the workers that would deliver them are gone. It returns the
// number of messages actually accepted (a prefix of ms), so callers can
// keep transport counters honest across shutdown races.
func (e *Engine[M]) Send(ms ...M) int { return e.enqueue(ms, true) }

// Forward files messages without backpressure — the worker path, used
// for messages produced while delivering another message. A worker that
// blocked on a full inbox could deadlock the pool, so forwards overshoot
// capacity instead; the bounded worker count bounds the overshoot.
// Like Send, it returns the number of messages accepted.
func (e *Engine[M]) Forward(ms ...M) int { return e.enqueue(ms, false) }

func (e *Engine[M]) enqueue(ms []M, backpressure bool) int {
	if len(ms) == 0 {
		return 0
	}
	if e.faults != nil {
		return e.faults.send(ms, backpressure)
	}
	accepted := 0
	e.mu.Lock()
	for _, m := range ms {
		to := m.Dest()
		if backpressure {
			for len(e.inboxes[to].buf) >= e.capacity && !e.stopping {
				e.spaceCond.Wait()
			}
		}
		if e.stopping {
			break
		}
		ib := &e.inboxes[to]
		ib.buf = append(ib.buf, m)
		if e.obs != nil {
			e.obs.QueueDepth(to, len(ib.buf))
		}
		e.outstanding++
		accepted++
		if !ib.queued {
			ib.queued = true
			e.pushReady(to)
			e.workAvail.Signal()
		}
	}
	e.mu.Unlock()
	return accepted
}

// enqueueOne files a single message directly into its inbox, bypassing
// the fault layer — the delivery half the fault layer itself uses, and
// the reason its flush paths may hold the injector lock: without
// backpressure this never blocks.
func (e *Engine[M]) enqueueOne(m M, backpressure bool) int {
	to := m.Dest()
	e.mu.Lock()
	if backpressure {
		for len(e.inboxes[to].buf) >= e.capacity && !e.stopping {
			e.spaceCond.Wait()
		}
	}
	if e.stopping {
		e.mu.Unlock()
		return 0
	}
	ib := &e.inboxes[to]
	ib.buf = append(ib.buf, m)
	if e.obs != nil {
		e.obs.QueueDepth(to, len(ib.buf))
	}
	e.outstanding++
	if !ib.queued {
		ib.queued = true
		e.pushReady(to)
		e.workAvail.Signal()
	}
	e.mu.Unlock()
	return 1
}

// pushReady appends to the ready queue, reclaiming the consumed prefix
// once it dominates. Caller holds mu.
func (e *Engine[M]) pushReady(r int) {
	if e.readyHead > 0 && e.readyHead >= len(e.ready)/2 {
		e.ready = append(e.ready[:0], e.ready[e.readyHead:]...)
		e.readyHead = 0
	}
	e.ready = append(e.ready, r)
}

// worker is one delivery loop: pop a destination with buffered messages,
// take a random one from its inbox, deliver it outside the central lock.
func (e *Engine[M]) worker() {
	defer e.wg.Done()
	var zero M
	e.mu.Lock()
	for {
		for e.readyHead == len(e.ready) && !e.stopping {
			e.workAvail.Wait()
		}
		if e.readyHead == len(e.ready) { // stopping and drained
			e.mu.Unlock()
			return
		}
		r := e.ready[e.readyHead]
		e.readyHead++
		ib := &e.inboxes[r]
		ib.queued = false
		if len(ib.buf) == 0 {
			continue // raced with another worker; nothing left here
		}
		// Seeded shuffle: deliver a uniformly random buffered message.
		// Swap-remove keeps the take O(1); the vacated slot is zeroed so
		// the inbox does not pin delivered message payloads.
		i := ib.rng.Intn(len(ib.buf))
		m := ib.buf[i]
		last := len(ib.buf) - 1
		ib.buf[i] = ib.buf[last]
		ib.buf[last] = zero
		ib.buf = ib.buf[:last]
		if e.obs != nil {
			e.obs.QueueDepth(r, len(ib.buf))
		}
		if len(ib.buf) == e.capacity-1 {
			// Crossed back below the bound: wake blocked senders. Inboxes
			// can sit above capacity transiently (forward overshoot), in
			// which case later takes re-cross and re-signal.
			e.spaceCond.Broadcast()
		}
		if len(ib.buf) > 0 && !ib.queued {
			ib.queued = true
			e.pushReady(r)
			e.workAvail.Signal()
		}
		e.mu.Unlock()

		if e.maxDelay > 0 {
			// splitmix64-style hash of the delivery counter gives
			// deterministic-ish jitter without sharing a PRNG across
			// workers.
			z := e.seq.Add(1) * 0x9e3779b97f4a7c15
			z ^= z >> 31
			time.Sleep(time.Duration(z % uint64(e.maxDelay)))
		}
		e.deliver(m)

		e.mu.Lock()
		e.outstanding--
		if e.outstanding == 0 {
			e.idleCond.Broadcast()
		}
	}
}

// Quiesce blocks until no messages are in flight. Messages a protocol
// buffers internally after ingest (a liveness failure) do not count as in
// flight, so Quiesce terminates even for broken protocols.
//
// Under fault injection Quiesce also settles the retransmit queue: every
// diverted transmission is force-delivered (loss is transient in the
// paper's reliable model) and due scheduled heals are performed, looping
// until nothing remains in flight. Messages parked behind a manual cut
// stay parked — heal first for a fully settled system.
func (e *Engine[M]) Quiesce() {
	for {
		e.mu.Lock()
		for e.outstanding != 0 {
			e.idleCond.Wait()
		}
		e.mu.Unlock()
		if e.faults == nil {
			return
		}
		if e.faults.step(time.Now(), true) {
			continue // the flush put messages back in flight; drain again
		}
		// The forced step was empty, but the fault pump may have flushed
		// retransmissions between our drain and the step: re-check.
		e.mu.Lock()
		done := e.outstanding == 0
		e.mu.Unlock()
		if done {
			return
		}
	}
}

// Close waits for all in-flight deliveries to drain, then stops the
// worker pool. It returns only after every worker has exited — no
// goroutines outlive the engine. Callers gate their own client operations
// before calling Close; sends racing shutdown are dropped once the drain
// begins.
func (e *Engine[M]) Close() {
	if e.faults != nil {
		// Stop the pump first so nothing re-enters the inboxes mid-drain;
		// messages still parked in the fault layer die with the engine,
		// like any message sent after shutdown.
		e.faults.stop()
	}
	e.mu.Lock()
	for e.outstanding != 0 {
		e.idleCond.Wait()
	}
	e.stopping = true
	e.workAvail.Broadcast()
	e.spaceCond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

// Outstanding returns the number of in-flight messages: buffered in
// inboxes or currently being delivered. After Close it is zero.
func (e *Engine[M]) Outstanding() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.outstanding
}
