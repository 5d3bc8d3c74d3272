package prcc

import (
	"fmt"

	"repro/internal/clientserver"
	"repro/internal/sharegraph"
	"repro/internal/transport"
)

// ClientID identifies a client in the client-server architecture.
type ClientID = sharegraph.ClientID

// ClientServerSystem is the Appendix E architecture: clients carry their
// own timestamps and may access arbitrary replica subsets, propagating
// causal dependencies even between replicas that share no registers. The
// timestamp graphs are computed over the augmented share graph
// (Definition 16).
type ClientServerSystem struct {
	sys *clientserver.System
}

// NewClientServer builds a client-server system: stores[i] is replica i's
// register set, clients[c] is R_c, the replicas client c may access (order
// expresses routing preference).
func NewClientServer(stores [][]Register, clients [][]ReplicaID) (*ClientServerSystem, error) {
	g, err := sharegraph.New(stores)
	if err != nil {
		return nil, fmt.Errorf("prcc: %w", err)
	}
	aug, err := sharegraph.NewAugmented(g, sharegraph.ClientAssignment(clients))
	if err != nil {
		return nil, fmt.Errorf("prcc: %w", err)
	}
	return &ClientServerSystem{sys: clientserver.NewSystem(aug)}, nil
}

// ServerEntries returns |Ê_i| for replica i (augmented timestamp size),
// or 0 for a replica outside [0,n).
func (c *ClientServerSystem) ServerEntries(i ReplicaID) int {
	return entries(c.sys.ReplicaGraphs, int(i))
}

// ClientEntries returns the length of client c's timestamp µ_c, or 0
// for a client outside [0,clients).
func (c *ClientServerSystem) ClientEntries(id ClientID) int {
	return entries(c.sys.ClientGraphs, int(id))
}

func entries(gs []*sharegraph.TSGraph, i int) int {
	if i < 0 || i >= len(gs) {
		return 0
	}
	return gs[i].Len()
}

// ClientOp is one operation of a client program.
type ClientOp = clientserver.ClientOp

// Live starts a concurrent deployment on the shared worker-pool engine:
// inter-replica updates flow through bounded per-replica inboxes drained
// by a fixed delivery pool (the same runtime as Cluster), and client
// calls are synchronous and blocking (a read blocks until the replica has
// caught up with the client's causal past — predicate J1). Defaults:
// GOMAXPROCS workers, no artificial delivery delay (the engine's seeded
// inbox shuffle reorders deliveries regardless).
func (c *ClientServerSystem) Live() *LiveClientServer {
	return c.LiveWith(ClusterOptions{})
}

// LiveWith starts a concurrent deployment with explicit runtime options —
// the same ClusterOptions surface the replica cluster takes, on the same
// runtime. SkipAudit is ignored: the client-server oracle also carries
// the Definition 26 client clauses the tests rely on. Chaos arms the
// fault layer (loss, duplication, partitions) on the inter-replica
// links. A zero MaxDelay means no artificial delivery jitter.
func (c *ClientServerSystem) LiveWith(opts ClusterOptions) *LiveClientServer {
	opts.SkipAudit = false
	inner, err := clientserver.NewLive(c.sys, opts.simOptions()...)
	if err != nil {
		panic(err) // the system's servers are one node per replica by construction
	}
	return &LiveClientServer{inner: inner, clients: len(c.sys.ClientGraphs)}
}

// LiveClientServer is a running client-server deployment.
type LiveClientServer struct {
	inner   *clientserver.LiveSystem
	clients int
}

// Client returns a synchronous handle for client id. Handles issue one
// operation at a time; distinct clients may run concurrently. The
// handle of a client outside [0,clients) fails every Write and Read.
func (l *LiveClientServer) Client(id ClientID) *LiveClient {
	if id < 0 || int(id) >= l.clients {
		return &LiveClient{err: fmt.Errorf("prcc: client %d outside [0,%d)", id, l.clients)}
	}
	return &LiveClient{inner: l.inner.Client(id)}
}

// LiveClient issues blocking reads and writes for one client.
type LiveClient struct {
	inner *clientserver.LiveClient
	err   error // set, and inner nil, for a client outside the system
}

// Write performs write(x, v), blocking until a replica accepts it.
func (lc *LiveClient) Write(x Register, v Value) error {
	if lc.err != nil {
		return lc.err
	}
	return lc.inner.Write(x, v)
}

// Read performs read(x), blocking until the serving replica satisfies the
// client's causal past.
func (lc *LiveClient) Read(x Register) (Value, error) {
	if lc.err != nil {
		return 0, lc.err
	}
	return lc.inner.Read(x)
}

// Sync blocks until all inter-replica updates have been applied.
func (l *LiveClientServer) Sync() { l.inner.Quiesce() }

// Metrics returns the deployment's unified metrics snapshot: legacy
// totals always, per-replica and per-edge breakdowns when
// ClusterOptions.Metrics armed the registry at LiveWith.
func (l *LiveClientServer) Metrics() Metrics { return l.inner.Metrics() }

// Workers returns the delivery worker-pool size.
func (l *LiveClientServer) Workers() int { return l.inner.Workers() }

// Outstanding returns the number of in-flight inter-replica updates
// (buffered or being delivered). After Close it is zero.
func (l *LiveClientServer) Outstanding() int { return l.inner.Outstanding() }

// Check audits the execution (including Definition 26's client clauses
// and liveness at quiescence).
func (l *LiveClientServer) Check() error {
	t := l.inner.Tracker()
	t.CheckLiveness()
	vs := t.Violations()
	if len(vs) == 0 {
		return nil
	}
	return fmt.Errorf("prcc: %d violations, first: %s", len(vs), vs[0])
}

// Close drains and shuts the deployment down.
func (l *LiveClientServer) Close() { l.inner.Close() }

// ClientSimReport is the outcome of a client-server simulation.
type ClientSimReport struct {
	Requests    int
	Responses   int
	Updates     int
	MetaBytes   int
	Violations  []Violation
	AllFinished bool
}

// Ok reports a clean run.
func (r ClientSimReport) Ok() bool { return len(r.Violations) == 0 && r.AllFinished }

// Simulate runs per-client programs (scripts[c] is client c's op
// sequence, executed with each client waiting for its previous response)
// under a seeded-random schedule, audited by the oracle including the
// Definition 26 client clauses.
func (c *ClientServerSystem) Simulate(scripts [][]ClientOp, seed int64) (ClientSimReport, error) {
	res, err := clientserver.Run(clientserver.RunConfig{
		Sys:     c.sys,
		Scripts: scripts,
		Sched:   transport.NewRandom(seed),
	})
	if err != nil {
		return ClientSimReport{}, fmt.Errorf("prcc: %w", err)
	}
	return ClientSimReport{
		Requests:    res.Requests,
		Responses:   res.Responses,
		Updates:     res.UpdatesSent,
		MetaBytes:   res.MetaBytes,
		Violations:  res.Violations,
		AllFinished: res.UnfinishedOps == 0 && res.StuckRequests == 0 && res.StuckUpdates == 0,
	}, nil
}
