package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sharegraph"
	"repro/internal/transport"
)

// Space is one register space's replicas in process: the n nodes of one
// core.Protocol behind per-replica locks, the oracle auditing them (or a
// bare update-ID counter), the Meta pool of the emit contract, the
// optional obs registry and, under chaos, each replica's crash/restart
// record. Run, Cluster, shard.Runtime and clientserver.LiveSystem (a
// Cluster of Appendix E servers) all host their replicas in one.
//
// The lock discipline lives here: the node call, its ID issue or apply
// report, a layered node's Settle, and the copy of every Meta it emits
// (Batch) happen under the replica's lock; callers push what Write, Do
// and Deliver staged after they return, with no lock held, so
// backpressure never blocks a node.
type Space struct {
	g        *sharegraph.Graph
	protocol core.Protocol
	nodes    []core.Node
	mu       []sync.Mutex
	tracker  *causality.Tracker // nil when auditing is off
	idSeq    atomic.Int64       // update-ID source when tracker is nil
	reg      *obs.Registry      // nil (disarmed) unless metrics are on
	meta     transport.BytePool
	// rec[r] is replica r's recovery state, guarded by mu[r]; nil unless
	// the host enables crash/restart, so the fault-free delivery path
	// pays one nil check.
	rec []replicaRec
	// layered is set once, in NewSpace, when the nodes carry a layer
	// that Deliver must settle after every apply.
	layered bool
}

// settler is a node with a layer on top: after a delivery applied
// updates, Settle does the layer's part, emitting into the same sink.
// clientserver.Server serves the client requests the applies unblocked.
type settler interface {
	Settle(out core.Sink)
}

// NewSpace builds protocol's nodes over g. audit attaches a causality
// oracle; reg, when non-nil, counts every delivery.
func NewSpace(g *sharegraph.Graph, protocol core.Protocol, audit bool, reg *obs.Registry) (*Space, error) {
	nodes, err := protocol.NewNodes()
	if err != nil {
		return nil, fmt.Errorf("build nodes: %w", err)
	}
	if len(nodes) != g.NumReplicas() {
		return nil, fmt.Errorf("protocol built %d nodes for %d replicas", len(nodes), g.NumReplicas())
	}
	sp := &Space{g: g, protocol: protocol, nodes: nodes, mu: make([]sync.Mutex, len(nodes)), reg: reg}
	_, sp.layered = nodes[0].(settler)
	if audit {
		sp.tracker = causality.NewTracker(g)
	}
	return sp, nil
}

// check fails, naming the valid range, for a replica outside [0,n).
func (sp *Space) check(r sharegraph.ReplicaID) error {
	if r < 0 || int(r) >= len(sp.nodes) {
		return fmt.Errorf("replica %d outside [0,%d)", r, len(sp.nodes))
	}
	return nil
}

// report tells the oracle replica r applied each update; the caller
// holds mu[r].
func (sp *Space) report(r sharegraph.ReplicaID, applied []core.Applied) {
	if sp.tracker == nil {
		return
	}
	for _, a := range applied {
		sp.tracker.OnApply(r, a.OracleID)
	}
}

// lock range-checks r and takes its lock, refusing a crashed replica;
// on success the caller unlocks mu[r].
func (sp *Space) lock(r sharegraph.ReplicaID) error {
	if err := sp.check(r); err != nil {
		return err
	}
	sp.mu[r].Lock()
	if sp.rec != nil && sp.rec[r].down {
		sp.mu[r].Unlock()
		return fmt.Errorf("replica %d is down", r)
	}
	return nil
}

// Do runs f on replica r's node under r's lock: a host's own operation
// on its node, such as a client-server request. It fails for a replica
// outside [0,n) or a crashed one.
func (sp *Space) Do(r sharegraph.ReplicaID, f func(core.Node) error) error {
	if err := sp.lock(r); err != nil {
		return err
	}
	defer sp.mu[r].Unlock()
	return f(sp.nodes[r])
}

// Tracker returns the oracle auditing the space; nil when auditing is
// off.
func (sp *Space) Tracker() *causality.Tracker { return sp.tracker }

// Write performs a client write at replica r: the update is issued to
// the oracle (or numbered) and handled under r's lock, so issue order
// per replica is the order the oracle requires. It fails for a replica
// outside [0,n), a crashed replica, or a register r does not store.
func (sp *Space) Write(r sharegraph.ReplicaID, x sharegraph.Register, v core.Value, out core.Sink) (causality.UpdateID, error) {
	if err := sp.lock(r); err != nil {
		return 0, err
	}
	defer sp.mu[r].Unlock()
	var id causality.UpdateID
	if sp.tracker != nil {
		id = sp.tracker.OnIssue(r, x)
	} else {
		id = causality.UpdateID(sp.idSeq.Add(1) - 1)
	}
	if err := sp.nodes[r].HandleWrite(x, v, id, out); err != nil {
		return 0, fmt.Errorf("write at %d: %w", r, err)
	}
	if sp.rec != nil && sp.rec[r].ckpt != nil {
		sp.rec[r].log = append(sp.rec[r].log, logEntry{write: true, reg: x, val: v, id: id})
	}
	return id, nil
}

// Deliver ingests env at its destination, reports every apply to the
// oracle, lets a layered node Settle and recycles env's Meta. A delivery
// to a crashed replica parks here, the one place that holds it until
// Restart. The returned slice is the node's scratch: a concurrent host
// may read only its length.
func (sp *Space) Deliver(env core.Envelope, out core.Sink) []core.Applied {
	to := env.To
	sp.mu[to].Lock()
	if sp.rec != nil {
		rec := &sp.rec[to]
		if rec.down {
			// Park it, keeping its pooled Meta, until Restart returns it
			// for re-forwarding.
			rec.parked = append(rec.parked, env)
			sp.mu[to].Unlock()
			return nil
		}
		if rec.ckpt != nil {
			e := env
			e.Meta = append([]byte(nil), env.Meta...)
			rec.log = append(rec.log, logEntry{env: e})
		}
	}
	applied := sp.nodes[to].HandleMessage(env, out)
	sp.report(to, applied)
	if sp.layered && len(applied) > 0 {
		// After report: the layer's step may read what the oracle knows
		// the replica has applied (OnClientAccess does).
		sp.nodes[to].(settler).Settle(out)
	}
	sp.mu[to].Unlock()
	if sp.reg != nil {
		n := len(applied)
		if env.MetaOnly {
			n = obs.MetaOnly // applies nothing by design: not a stall
		}
		sp.reg.Deliver(int(env.From), int(to), n)
	}
	// The node has decoded (or rejected) the metadata; recycle the buffer
	// for a future emit.
	sp.meta.Put(env.Meta)
	return applied
}

// Recycle returns a staged Meta buffer that was never delivered.
func (sp *Space) Recycle(meta []byte) { sp.meta.Put(meta) }

// Read returns replica r's local copy of x. A replica outside [0,n) or a
// crashed one serves no reads: ok is false.
func (sp *Space) Read(r sharegraph.ReplicaID, x sharegraph.Register) (core.Value, bool) {
	if sp.lock(r) != nil {
		return 0, false
	}
	defer sp.mu[r].Unlock()
	return sp.nodes[r].Read(x)
}

// Pending returns replica r's buffered-but-unapplied update count.
func (sp *Space) Pending(r int) int {
	sp.mu[r].Lock()
	defer sp.mu[r].Unlock()
	return sp.nodes[r].PendingCount()
}

// PendingTotal sums Pending across replicas.
func (sp *Space) PendingTotal() int {
	total := 0
	for r := range sp.nodes {
		total += sp.Pending(r)
	}
	return total
}

// State returns each replica's register contents: one map per replica
// covering the registers it genuinely stores, the shape every runtime's
// differential tests compare. Call after quiescence for a stable capture.
func (sp *Space) State() []map[sharegraph.Register]core.Value {
	out := make([]map[sharegraph.Register]core.Value, len(sp.nodes))
	for r := range sp.nodes {
		regs := sp.g.Stores(sharegraph.ReplicaID(r)).Sorted()
		m := make(map[sharegraph.Register]core.Value, len(regs))
		sp.mu[r].Lock()
		for _, x := range regs {
			if v, ok := sp.nodes[r].Read(x); ok {
				m[x] = v
			}
		}
		sp.mu[r].Unlock()
		out[r] = m
	}
	return out
}

// Audit runs the oracle's liveness check and returns every violation so
// far; nil when auditing is off.
func (sp *Space) Audit() []causality.Violation {
	if sp.tracker == nil {
		return nil
	}
	sp.tracker.CheckLiveness()
	return sp.tracker.Violations()
}

// Batch is a core.Sink that stages one node call's emitted envelopes in
// Envs, copying each Meta through its space's pool inside the replica's
// lock (the consume-before-next-call contract). The buffers return to
// the pool when the envelopes are delivered.
type Batch struct {
	Envs []core.Envelope
	sp   *Space
}

// For binds b to sp's Meta pool and returns it.
func (b *Batch) For(sp *Space) *Batch {
	b.sp = sp
	return b
}

// Emit implements core.Sink.
func (b *Batch) Emit(env core.Envelope) {
	env.Meta = b.sp.meta.Copy(env.Meta)
	b.Envs = append(b.Envs, env)
}

// Drive runs every non-empty queue on a goroutine of its own, calling do
// on its items in order, and returns when all are done: per-queue
// program order, concurrency across queues.
func Drive[T any](queues [][]T, do func(T)) {
	var wg sync.WaitGroup
	for _, q := range queues {
		if len(q) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, it := range q {
				do(it)
			}
		}()
	}
	wg.Wait()
}
