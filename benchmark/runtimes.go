package main

import (
	"fmt"
	"net"
	"time"

	prcc "repro"
	"repro/internal/core"
	"repro/internal/wire"
)

// instance is one freshly set-up runtime, seen through the handful of
// public calls the drivers make into it. Each adapter below is a thin
// translation; no adapter adds behaviour of its own.
type instance interface {
	// write performs the load's or the prober's write of v to s, at s.owner.
	write(s *slot, v int64) error
	// read is the runtime's public read of s at one holder.
	read(s *slot, holder int) (int64, error)
	// sync blocks until everything written so far is applied everywhere.
	sync() error
	// pending counts updates still in flight or buffered; 0 after sync.
	pending() (int64, error)
	// metrics is the runtime's unified snapshot.
	metrics() (prcc.Metrics, error)
	// check is the oracle's verdict; nil on a runtime started unaudited.
	check() error
	close()
}

// loadReader is implemented by runtimes whose load contains reads.
type loadReader interface {
	loadRead(client int, s *slot) error
}

// startOpts selects how a fresh instance is armed.
type startOpts struct {
	seed    int64 // delivery-shuffle seed, never 0
	workers int
	audit   bool // arm the causality oracle
	metrics bool // arm the obs registry (traced runs only)
}

// ---------------------------------------------------------------------------
// prcc.Cluster (cluster_randomk64, and audit_ring64's paced phase)

type clusterInst struct{ c *prcc.Cluster }

func startCluster(l *load, o startOpts) (instance, error) {
	sys, err := prcc.New(l.stores)
	if err != nil {
		return nil, err
	}
	c, err := sys.ClusterWith(prcc.ClusterOptions{Workers: o.workers, Seed: o.seed, SkipAudit: !o.audit, Metrics: o.metrics})
	if err != nil {
		return nil, err
	}
	return &clusterInst{c}, nil
}

func (ci *clusterInst) write(s *slot, v int64) error {
	return ci.c.Write(prcc.ReplicaID(s.owner), s.reg, prcc.Value(v))
}

func (ci *clusterInst) read(s *slot, holder int) (int64, error) {
	v, ok := ci.c.Read(prcc.ReplicaID(holder), s.reg)
	if !ok {
		return 0, fmt.Errorf("replica %d does not serve %s", holder, s.reg)
	}
	return int64(v), nil
}

func (ci *clusterInst) sync() error { ci.c.Sync(); return nil }

func (ci *clusterInst) pending() (int64, error) {
	return int64(ci.c.Outstanding()) + ci.c.Metrics().Parked, nil
}

func (ci *clusterInst) metrics() (prcc.Metrics, error) { return ci.c.Metrics(), nil }
func (ci *clusterInst) check() error                   { return ci.c.Check() }
func (ci *clusterInst) close()                         { ci.c.Close() }

// ---------------------------------------------------------------------------
// prcc.ShardedSystem (shard_zipf1k)

type shardInst struct{ s *prcc.ShardedSystem }

func startSharded(spaces int) func(*load, startOpts) (instance, error) {
	return func(l *load, o startOpts) (instance, error) {
		sys, err := prcc.New(l.stores)
		if err != nil {
			return nil, err
		}
		// FlushSize and FlushInterval stay at their defaults (32, 1ms):
		// the batching policy is part of what this workload measures.
		s, err := sys.ShardedWith(prcc.ShardOptions{Spaces: spaces, Workers: o.workers, Seed: o.seed, Audit: o.audit, Metrics: o.metrics})
		if err != nil {
			return nil, err
		}
		return &shardInst{s}, nil
	}
}

func (si *shardInst) write(s *slot, v int64) error {
	return si.s.Write(s.space, prcc.ReplicaID(s.owner), s.reg, prcc.Value(v))
}

func (si *shardInst) read(s *slot, holder int) (int64, error) {
	v, ok := si.s.Read(s.space, prcc.ReplicaID(holder), s.reg)
	if !ok {
		return 0, fmt.Errorf("space %d replica %d does not serve %s", s.space, holder, s.reg)
	}
	return int64(v), nil
}

func (si *shardInst) sync() error                    { si.s.Sync(); return nil }
func (si *shardInst) pending() (int64, error)        { return si.s.Metrics().Outstanding, nil }
func (si *shardInst) metrics() (prcc.Metrics, error) { return si.s.Metrics(), nil }
func (si *shardInst) check() error                   { return si.s.Check() }
func (si *shardInst) close()                         { si.s.Close() }

// ---------------------------------------------------------------------------
// prcc.LiveClientServer (clientserver_mixed)

// csInst drives the live client-server system. Slot owners are clients,
// and a register is read "at holder h" through the client the layout
// names for that holder (slot.readVia).
type csInst struct {
	live    *prcc.LiveClientServer
	clients []*prcc.LiveClient
}

func startClientServer(l *load, o startOpts) (instance, error) {
	cs, err := prcc.NewClientServer(l.stores, l.clients)
	if err != nil {
		return nil, err
	}
	// This runtime is always audited; o.audit has nothing to switch.
	live := cs.LiveWith(prcc.ClusterOptions{Workers: o.workers, Seed: o.seed, Metrics: o.metrics})
	ci := &csInst{live: live, clients: make([]*prcc.LiveClient, len(l.clients))}
	for c := range l.clients {
		ci.clients[c] = live.Client(prcc.ClientID(c))
	}
	return ci, nil
}

func (ci *csInst) write(s *slot, v int64) error {
	return ci.clients[s.owner].Write(s.reg, prcc.Value(v))
}

func (ci *csInst) loadRead(client int, s *slot) error {
	_, err := ci.clients[client].Read(s.reg)
	return err
}

func (ci *csInst) read(s *slot, holder int) (int64, error) {
	for i, h := range s.holders {
		if h == holder {
			v, err := ci.clients[s.readVia[i]].Read(s.reg)
			return int64(v), err
		}
	}
	return 0, fmt.Errorf("replica %d does not hold %s", holder, s.reg)
}

func (ci *csInst) sync() error { ci.live.Sync(); return nil }

func (ci *csInst) pending() (int64, error) {
	return int64(ci.live.Outstanding()) + ci.live.Metrics().Parked, nil
}

func (ci *csInst) metrics() (prcc.Metrics, error) { return ci.live.Metrics(), nil }
func (ci *csInst) check() error                   { return ci.live.Check() }
func (ci *csInst) close()                         { ci.live.Close() }

// ---------------------------------------------------------------------------
// wire.Node x N + wire.Client over loopback TCP (wire_ring8)

// wireInst is a whole deployment inside this process: one wire.Node per
// replica, each with its own protocol instance as separate processes
// would have, listening on real loopback sockets, and the wire.Client
// that drives them. The prober talks through a second client so that its
// requests do not queue behind the load's write stream.
type wireInst struct {
	nodes  []*wire.Node
	served chan error
	load   *wire.Client
	probe  *wire.Client
}

// quiesceTimeout bounds wire.Client.Quiesce; hitting it is a failure.
const quiesceTimeout = 60 * time.Second

// loopbackConfig reserves one free loopback port per replica by listening
// on port 0 and releasing the listener again.
func loopbackConfig(stores [][]prcc.Register) (wire.ClusterConfig, error) {
	cfg := wire.ClusterConfig{Protocol: "edge-indexed", Replicas: make([]wire.NodeAddr, len(stores))}
	lns := make([]net.Listener, 0, len(stores))
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range stores {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return cfg, err
		}
		lns = append(lns, ln)
		cfg.Replicas[i] = wire.NodeAddr{Addr: ln.Addr().String(), Registers: stores[i]}
	}
	return cfg, nil
}

func startWire(l *load, o startOpts) (instance, error) {
	cfg, err := loopbackConfig(l.stores)
	if err != nil {
		return nil, err
	}
	g, err := cfg.Graph()
	if err != nil {
		return nil, err
	}
	wi := &wireInst{served: make(chan error, len(cfg.Replicas))}
	opts := wire.NodeOptions{Logf: func(string, ...any) {}}
	if o.metrics {
		opts.StatusAddr = "127.0.0.1:0" // the only switch that arms a node's registry
	}
	for i := range cfg.Replicas {
		proto, err := core.NewEdgeIndexed(g)
		if err != nil {
			wi.close()
			return nil, err
		}
		n, err := wire.NewNode(cfg, i, proto, opts)
		if err != nil {
			wi.close()
			return nil, err
		}
		wi.nodes = append(wi.nodes, n)
		go func() { wi.served <- n.Serve() }()
	}
	if wi.load, err = wire.Dial(cfg, 10*time.Second); err == nil {
		wi.probe, err = wire.Dial(cfg, 10*time.Second)
	}
	if err != nil {
		wi.close()
		return nil, err
	}
	return wi, nil
}

func (wi *wireInst) write(s *slot, v int64) error {
	c := wi.load
	if s.probe {
		c = wi.probe
	}
	return c.Write(prcc.ReplicaID(s.owner), s.reg, prcc.Value(v))
}

func (wi *wireInst) read(s *slot, holder int) (int64, error) {
	st, err := wi.probe.Snapshot(prcc.ReplicaID(holder))
	if err != nil {
		return 0, err
	}
	return int64(st[s.reg]), nil
}

func (wi *wireInst) sync() error { return wi.load.Quiesce(quiesceTimeout) }

func (wi *wireInst) pending() (int64, error) {
	var n int64
	for r := range wi.nodes {
		st, err := wi.load.Status(prcc.ReplicaID(r))
		if err != nil {
			return 0, err
		}
		n += int64(st.Pending + st.QueuedOut)
	}
	return n, nil
}

// metrics folds the nodes' own snapshots. MetaBytes counts whole frames
// and is present only when the registries are armed.
func (wi *wireInst) metrics() (prcc.Metrics, error) {
	var m prcc.Metrics
	m.Runtime = "wire"
	for _, n := range wi.nodes {
		s := n.Metrics()
		m.Messages += s.Messages
		m.MetaBytes += s.MetaBytes
		m.Updates += s.Updates
		m.Parked += s.Parked
		for i, r := range s.Replicas {
			if len(m.Replicas) <= i {
				m.Replicas = append(m.Replicas, prcc.ReplicaMetrics{})
			}
			m.Replicas[i].Delivered += r.Delivered
			m.Replicas[i].Stalls += r.Stalls
			m.Replicas[i].Rechecks += r.Rechecks
		}
	}
	return m, nil
}

func (wi *wireInst) check() error { return nil }

func (wi *wireInst) close() {
	for _, c := range []*wire.Client{wi.load, wi.probe} {
		if c != nil {
			c.Close()
		}
	}
	for _, n := range wi.nodes {
		n.Close()
	}
	for range wi.nodes {
		<-wi.served
	}
}
