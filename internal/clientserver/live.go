package clientserver

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/obs"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
)

// LiveSystem runs the client-server architecture with real concurrency:
// servers are mutex-protected state machines, inter-replica updates travel
// on the shared worker-pool engine (internal/runtime — the same bounded
// per-replica inboxes, backpressure and seeded delivery shuffle as the
// replica cluster, never a goroutine per message), and client calls block
// until the server's predicate J1/J2 admits them — including requests
// buffered behind missing causal dependencies.
//
// Goroutine budget: engine workers plus one goroutine per concurrently
// blocked client call; at quiescence only the workers remain.
type LiveSystem struct {
	sys     *System
	tracker *causality.Tracker
	servers []*liveServer
	eng     *rt.Engine[core.Envelope]
	// reg mirrors Options.Obs: nil is the disarmed state, every
	// recording call is nil-safe (the engine-wide metrics discipline).
	reg *obs.Registry

	closed    atomic.Bool
	updates   atomic.Int64
	metaBytes atomic.Int64

	respMu    sync.Mutex
	respChans map[sharegraph.ClientID]chan Response
}

type liveServer struct {
	mu sync.Mutex
	s  *Server
}

// NewLive starts a live deployment of the system with default engine
// options (worker pool sized to GOMAXPROCS, no artificial delivery
// delay). The engine's seeded inbox shuffle already reorders deliveries,
// and with a bounded pool a per-delivery sleep would throttle throughput
// — unlike the old goroutine-per-update dispatcher, whose sleeps
// overlapped without bound. Tests that want messages held in flight
// longer pass Options.MaxDelay explicitly via NewLiveWith.
func NewLive(sys *System) *LiveSystem {
	return NewLiveWith(sys, rt.Options{})
}

// NewLiveWith starts a live deployment with explicit engine options.
// Setting Options.Obs arms metrics collection (see Metrics).
func NewLiveWith(sys *System, opts rt.Options) *LiveSystem {
	ls := newLiveBase(sys)
	ls.reg = opts.Obs
	ls.eng = rt.New(len(ls.servers), opts, ls.deliver)
	return ls
}

// NewLiveChaotic starts a live deployment whose inter-replica transport
// runs through the engine's seeded fault layer: per-edge loss and
// duplication lotteries per the plan, and partitions. Faults are
// transient (drops retransmit, cuts park until heal), so a chaotic
// system that heals still converges and must pass CheckLiveness.
func NewLiveChaotic(sys *System, opts rt.Options, plan rt.FaultPlan) *LiveSystem {
	ls := newLiveBase(sys)
	ls.reg = opts.Obs
	clone := func(env core.Envelope) core.Envelope {
		// The duplicate needs its own Meta: the original's is recycled by
		// whichever server ingests it first.
		env.Meta = sys.meta.Copy(env.Meta)
		return env
	}
	ls.eng = rt.NewWithFaults(len(ls.servers), opts, plan, clone, ls.deliver)
	return ls
}

func newLiveBase(sys *System) *LiveSystem {
	ls := &LiveSystem{
		sys:       sys,
		tracker:   causality.NewTracker(sys.Aug.G),
		servers:   make([]*liveServer, sys.Aug.G.NumReplicas()),
		respChans: make(map[sharegraph.ClientID]chan Response),
	}
	for i := range ls.servers {
		ls.servers[i] = &liveServer{s: NewServer(sys, sharegraph.ReplicaID(i))}
		ls.servers[i].s.tracker = ls.tracker
	}
	return ls
}

// Faults exposes the fault injector; nil unless built with NewLiveChaotic.
func (ls *LiveSystem) Faults() *rt.FaultInjector[core.Envelope] { return ls.eng.Faults() }

// StaleDrops sums the undeliverable updates every server received (see
// Server.StaleDrops).
func (ls *LiveSystem) StaleDrops() int {
	total := 0
	for _, srv := range ls.servers {
		srv.mu.Lock()
		total += srv.s.StaleDrops()
		srv.mu.Unlock()
	}
	return total
}

// outcomePool recycles Outcome scratch across client calls and update
// deliveries; dispatch copies everything out of the outcome (updates and
// responses move by value, their buffers by ownership transfer), so an
// outcome is reusable as soon as dispatch returns.
var outcomePool = sync.Pool{New: func() any { return &Outcome{} }}

func getOutcome() *Outcome  { return outcomePool.Get().(*Outcome) }
func putOutcome(o *Outcome) { o.Reset(); outcomePool.Put(o) }

// Tracker exposes the auditing oracle.
func (ls *LiveSystem) Tracker() *causality.Tracker { return ls.tracker }

// Workers returns the delivery worker-pool size.
func (ls *LiveSystem) Workers() int { return ls.eng.Workers() }

// Outstanding returns the number of in-flight inter-replica updates.
func (ls *LiveSystem) Outstanding() int { return ls.eng.Outstanding() }

// UpdatesSent returns the number of inter-replica updates dispatched.
func (ls *LiveSystem) UpdatesSent() int64 { return ls.updates.Load() }

// MetaBytes returns total update-metadata bytes dispatched.
func (ls *LiveSystem) MetaBytes() int64 { return ls.metaBytes.Load() }

// Metrics snapshots the live system in the unified observability
// schema. The legacy totals are always present; the per-replica and
// per-edge breakdowns require an armed registry (Options.Obs).
func (ls *LiveSystem) Metrics() obs.Snapshot {
	s := ls.reg.Snapshot()
	s.Runtime = "clientserver"
	s.Updates = ls.updates.Load()
	s.Messages = ls.updates.Load()
	s.MetaBytes = ls.metaBytes.Load()
	s.Outstanding = int64(ls.eng.Outstanding())
	if f := ls.eng.Faults(); f != nil {
		s.Dropped = int64(f.Dropped())
		s.Duped = int64(f.Duped())
		s.Parked += int64(f.ParkedMessages())
	}
	for i, srv := range ls.servers {
		srv.mu.Lock()
		p := int64(srv.s.node.PendingCount() + srv.s.PendingRequests())
		srv.mu.Unlock()
		if i < len(s.Replicas) {
			s.Replicas[i].Parked = p
		}
		s.Parked += p
	}
	return s
}

// Client returns a handle for client c. A handle issues one operation at
// a time (matching the Appendix E client prototype, which awaits each
// response); it is not safe for concurrent use, but distinct clients may
// operate concurrently.
func (ls *LiveSystem) Client(c sharegraph.ClientID) *LiveClient {
	ls.respMu.Lock()
	defer ls.respMu.Unlock()
	if _, ok := ls.respChans[c]; !ok {
		ls.respChans[c] = make(chan Response, 1)
	}
	return &LiveClient{ls: ls, c: NewClient(ls.sys, c)}
}

// LiveClient is a synchronous client handle.
type LiveClient struct {
	ls *LiveSystem
	c  *Client
}

// Write performs write(x, v) at the preferred replica, blocking until the
// replica accepts it (predicate J2) and returns its timestamp.
func (lc *LiveClient) Write(x sharegraph.Register, v core.Value) error {
	return lc.do(x, v, false)
}

// Read performs read(x), blocking until the replica's state satisfies the
// client's timestamp (predicate J1), and returns the register value.
func (lc *LiveClient) Read(x sharegraph.Register) (core.Value, error) {
	resp, err := lc.doResp(x, 0, true)
	if err != nil {
		return 0, err
	}
	return resp.Val, nil
}

func (lc *LiveClient) do(x sharegraph.Register, v core.Value, isRead bool) error {
	_, err := lc.doResp(x, v, isRead)
	return err
}

func (lc *LiveClient) doResp(x sharegraph.Register, v core.Value, isRead bool) (Response, error) {
	ls := lc.ls
	if ls.closed.Load() {
		return Response{}, fmt.Errorf("clientserver: live system closed")
	}
	req, err := lc.c.NewRequest(x, v, isRead)
	if err != nil {
		return Response{}, err
	}
	srv := ls.servers[req.Replica]
	out := getOutcome()
	srv.mu.Lock()
	srv.s.HandleRequest(req, out)
	srv.mu.Unlock()
	// Dispatch outside the server lock: Send applies inbox backpressure
	// and may block; a blocked sender holding a server lock could starve
	// the workers that must drain the full inbox.
	ls.dispatch(out, true)
	putOutcome(out)

	ls.respMu.Lock()
	ch := ls.respChans[lc.c.ID()]
	ls.respMu.Unlock()
	resp := <-ch // served immediately or unblocked by a later update
	lc.c.AbsorbResponse(resp)
	return resp, nil
}

// dispatch hands an outcome's updates to the engine and routes responses
// to waiting clients. Client-path callers use backpressure (Send); the
// delivery path forwards exempt (Forward), since a blocked worker could
// deadlock the pool.
func (ls *LiveSystem) dispatch(out *Outcome, backpressure bool) {
	if out == nil {
		return
	}
	if len(out.Updates) > 0 {
		var accepted int
		if backpressure {
			accepted = ls.eng.Send(out.Updates...)
		} else {
			accepted = ls.eng.Forward(out.Updates...)
		}
		// Count only what the engine accepted — never the suffix a
		// shutdown race dropped — so Stats matches what was delivered.
		ls.updates.Add(int64(accepted))
		for i := 0; i < accepted; i++ {
			u := &out.Updates[i]
			ls.metaBytes.Add(int64(len(u.Meta)))
			ls.reg.Sent(int(u.From), int(u.To), len(u.Meta))
		}
	}
	for _, resp := range out.Responses {
		ls.respMu.Lock()
		ch, ok := ls.respChans[resp.Client]
		ls.respMu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// deliver ingests one inter-replica update at its destination server; the
// engine calls it from pool workers.
func (ls *LiveSystem) deliver(env core.Envelope) {
	srv := ls.servers[env.To]
	out := getOutcome()
	srv.mu.Lock()
	srv.s.HandleUpdate(env, out)
	srv.mu.Unlock()
	ls.reg.Deliver(int(env.From), int(env.To), len(out.Applied))
	ls.dispatch(out, false)
	putOutcome(out)
}

// Quiesce blocks until no inter-replica updates are in flight.
func (ls *LiveSystem) Quiesce() { ls.eng.Quiesce() }

// Close rejects further client operations, drains in-flight deliveries
// and stops the worker pool; no goroutines outlive the system.
func (ls *LiveSystem) Close() {
	ls.closed.Store(true)
	ls.eng.Close()
}

// CheckLiveness audits update propagation at quiescence.
func (ls *LiveSystem) CheckLiveness() []causality.Violation {
	return ls.tracker.CheckLiveness()
}

// StateSnapshot returns each replica's register contents (the registers
// it genuinely stores). Call after Quiesce for a stable snapshot; the
// differential tests compare it against the deterministic runner's
// final state.
func (ls *LiveSystem) StateSnapshot() []map[sharegraph.Register]core.Value {
	out := make([]map[sharegraph.Register]core.Value, len(ls.servers))
	for i, srv := range ls.servers {
		srv.mu.Lock()
		out[i] = serverState(ls.sys.Aug.G, srv.s, sharegraph.ReplicaID(i))
		srv.mu.Unlock()
	}
	return out
}
