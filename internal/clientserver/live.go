package clientserver

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sharegraph"
	"repro/internal/sim"
)

// LiveSystem runs the client-server architecture with real concurrency:
// it is a sim.Cluster whose nodes are the servers, so inter-replica
// updates travel on the shared worker-pool engine (bounded per-replica
// inboxes, backpressure, seeded delivery shuffle, the fault layer under
// sim.WithChaos) and every apply is audited by the cluster's oracle. A
// client call is served through Cluster.Do and blocks until the server's
// predicate J1/J2 admits it — including a request buffered behind
// missing causal dependencies, which the delivery that unblocks it
// serves.
//
// Goroutine budget: engine workers plus one goroutine per concurrently
// blocked client call; at quiescence only the workers remain.
type LiveSystem struct {
	*sim.Cluster
	sys *System
	// replies[c] is client c's one-slot response channel, made for every
	// client up front. A server sends on it under the replica lock, which
	// cannot block: a client, driven through one handle, has at most one
	// request in flight.
	replies []chan Response
}

// NewLive starts a live deployment of the system on a sim.Cluster built
// with opts (sim.WithChaos arms the fault layer, sim.WithMetrics the
// registry). It is audited unless opts include sim.WithoutAudit.
func NewLive(sys *System, opts ...sim.ClusterOption) (*LiveSystem, error) {
	ls := &LiveSystem{sys: sys, replies: make([]chan Response, sys.Aug.NumClients())}
	for c := range ls.replies {
		ls.replies[c] = make(chan Response, 1)
	}
	d := &deployment{sys: sys, respond: func(r Response) { ls.replies[r.Client] <- r }}
	c, err := sim.NewCluster(sys.Aug.G, d, opts...)
	if err != nil {
		return nil, fmt.Errorf("clientserver: %w", err)
	}
	d.tracker = c.Tracker()
	ls.Cluster = c
	return ls, nil
}

// Metrics snapshots the live system in the unified observability
// schema: the cluster's, with every message an update and every request
// still buffered at a server counted as parked.
func (ls *LiveSystem) Metrics() obs.Snapshot {
	s := ls.Cluster.Metrics()
	s.Runtime, s.Updates = "clientserver", s.Messages
	return s
}

// Client returns the handle of client c. A handle issues one operation
// at a time (matching the Appendix E client prototype, which awaits each
// response); it is not safe for concurrent use, and a client has one
// handle at a time, but distinct clients may operate concurrently.
func (ls *LiveSystem) Client(c sharegraph.ClientID) *LiveClient {
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
	_, err := lc.do(x, v, false)
	return err
}

// Read performs read(x), blocking until the replica's state satisfies the
// client's timestamp (predicate J1), and returns the register value.
func (lc *LiveClient) Read(x sharegraph.Register) (core.Value, error) {
	return lc.do(x, 0, true)
}

func (lc *LiveClient) do(x sharegraph.Register, v core.Value, isRead bool) (core.Value, error) {
	req, err := lc.c.NewRequest(x, v, isRead)
	if err != nil {
		return 0, err
	}
	err = lc.ls.Do(req.Replica, func(n core.Node, out core.Sink) error {
		if !n.(*Server).HandleRequest(req, out) {
			return fmt.Errorf("replica %d refused the request", req.Replica)
		}
		return nil
	})
	if err != nil {
		lc.ls.sys.putVec(req.Mu)
		return 0, fmt.Errorf("clientserver: %w", err)
	}
	resp := <-lc.ls.replies[lc.c.ID()] // served at once or unblocked by a later update
	lc.c.AbsorbResponse(resp)
	return resp.Val, nil
}
