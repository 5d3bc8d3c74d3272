package core

import (
	"fmt"

	"repro/internal/causality"
	"repro/internal/ingest"
	"repro/internal/sharegraph"
	"repro/internal/timestamp"
)

// Clock is the timestamp half of one instantiation of the prototype,
// bound to one replica i: what τ_i looks like and how advance, merge and
// predicate J read it. The node owns τ_i (it snapshots and restores it);
// a Clock only ever sees it as an argument and must not retain it.
//
// Every predicate in this repository has the same skeleton: each message
// from k to i carries a per-receiver sequence number — one counter of the
// sender's vector, which every send to i advances by exactly one — and J
// admits it only when that number is one past one counter of τ_i, the
// gate. Senders says where both live, so the indexed drain can file
// buffered updates by sequence number and run Deliverable on at most one
// update per sender.
//
// A Clock holds no per-node state beyond scratch for Meta's result; the
// stateless ones are shared by every node a protocol builds for replica i.
type Clock interface {
	// Zero returns the initial τ_i.
	Zero() timestamp.Vec
	// Entries is the number of integer counters the paper's bounds charge
	// this replica for.
	Entries() int
	// Senders describes, per sender k, the vectors received from k. The
	// table has one entry per replica and is not modified.
	Senders() []Sender
	// Advance is advance(i, τ_i, x, v) for a write to x that travels to
	// the replicas in to.
	Advance(τ timestamp.Vec, x sharegraph.Register, to []sharegraph.ReplicaID)
	// Meta returns the vector recipient k is sent; shared reports that
	// every recipient of this write gets the same one, so it is encoded
	// once. The result is valid until the next call on the clock.
	Meta(τ timestamp.Vec, k sharegraph.ReplicaID) (v timestamp.Vec, shared bool)
	// Deliverable is predicate J(i, τ_i, k, T).
	Deliverable(τ timestamp.Vec, k sharegraph.ReplicaID, T timestamp.Vec) bool
	// Merge is merge(i, τ_i, k, T), in place.
	Merge(τ timestamp.Vec, k sharegraph.ReplicaID, T timestamp.Vec)
	// Recheck lists the senders whose predicate may newly hold once an
	// update from k has been merged; k itself is retried regardless.
	Recheck(k sharegraph.ReplicaID) []sharegraph.ReplicaID
}

// Sender is what a Clock says about the vectors one sender k sends here.
type Sender struct {
	// Len is the length such a vector must have.
	Len int
	// SeqPos is the position of the per-receiver sequence number in it,
	// and GatePos the position in τ_i of the counter it is gated on.
	// Tracked is false when J can never admit an update from k, and the
	// positions mean nothing.
	SeqPos, GatePos int
	Tracked         bool
}

// Hop is one send of the prototype: the register the messages name (and
// advance counts) and the replicas they go to, in emission order.
type Hop struct {
	Reg sharegraph.Register
	To  []sharegraph.ReplicaID
	// MetaOnly, when non-nil, is parallel to To and marks the recipients
	// that get the timestamp without the value.
	MetaOnly []bool
}

// Router is the placement half of an instantiation, bound to one
// replica: where a write goes, and what an applied update turns into.
// Returned slices are router-owned and must not be modified.
type Router interface {
	// Stores reports whether clients may read and write x here.
	Stores(x sharegraph.Register) bool
	// Fanout lists the sends a client write to x becomes. Each hop is
	// advanced, encoded and emitted on its own, in order.
	Fanout(x sharegraph.Register) []Hop
	// Deliver resolves an applied update on reg: the register it
	// materialises here (ok false: none, a pure relay) and the hops it is
	// forwarded on.
	Deliver(reg sharegraph.Register) (store sharegraph.Register, ok bool, fwd []Hop)
}

// shareRoute is the Router of every protocol that does not relay: the
// hops of each register clients may access here, fixed at construction.
type shareRoute map[sharegraph.Register][]Hop

// ShareRoutes returns the Routers of a protocol that does not relay, one
// per replica of g: a write to x goes to the other holders of x in g, in
// sharegraph.UpdateRecipients order. Holders for which real reports false
// hold a Section 5 dummy copy — sent the timestamp only, closed to clients
// (real nil: every copy in g is genuine); with everyone set, every
// remaining replica is sent the timestamp too, after the holders. The
// routers are immutable, so every node a protocol builds shares them.
func ShareRoutes(g *sharegraph.Graph, real func(sharegraph.ReplicaID, sharegraph.Register) bool, everyone bool) func(sharegraph.ReplicaID) Router {
	if real == nil {
		real = g.StoresRegister
	}
	routes := make([]shareRoute, g.NumReplicas())
	for i := range routes {
		id := sharegraph.ReplicaID(i)
		routes[i] = make(shareRoute)
		for x := range g.Stores(id) {
			if !real(id, x) {
				continue
			}
			h := Hop{Reg: x, To: g.UpdateRecipients(id, x)}
			for k := 0; everyone && k < len(routes); k++ {
				if rk := sharegraph.ReplicaID(k); rk != id && !g.StoresRegister(rk, x) {
					h.To = append(h.To, rk)
				}
			}
			for idx, k := range h.To {
				if !real(k, x) {
					if h.MetaOnly == nil {
						h.MetaOnly = make([]bool, len(h.To))
					}
					h.MetaOnly[idx] = true
				}
			}
			routes[i][x] = []Hop{h}
		}
	}
	return func(i sharegraph.ReplicaID) Router { return routes[i] }
}

func (r shareRoute) Stores(x sharegraph.Register) bool {
	_, ok := r[x]
	return ok
}

func (r shareRoute) Fanout(x sharegraph.Register) []Hop { return r[x] }

func (r shareRoute) Deliver(reg sharegraph.Register) (sharegraph.Register, bool, []Hop) {
	return reg, true, nil
}

// Prototype is the replica prototype of Section 2.1 as a Protocol: one
// node type that stores registers, buffers received updates, applies them
// when J holds and merges their timestamps, parameterised per replica by
// a Clock and a Router. Every protocol in this repository is a Prototype
// with its own pair.
type Prototype struct {
	name  string
	n     int
	clock func(sharegraph.ReplicaID) Clock
	route func(sharegraph.ReplicaID) Router
	// naive selects the reference drain — rescan the whole buffer until
	// nothing is deliverable — which differential tests compare the
	// indexed drain against. Production paths never set it.
	naive bool
	diag  *Diag
}

var (
	_ Protocol     = (*Prototype)(nil)
	_ DiagSettable = (*Prototype)(nil)
)

// NewPrototype builds the protocol whose replica i of n runs clock(i) and
// route(i).
func NewPrototype(name string, n int, clock func(sharegraph.ReplicaID) Clock, route func(sharegraph.ReplicaID) Router) *Prototype {
	return &Prototype{name: name, n: n, clock: clock, route: route}
}

// Rescan returns a copy of p whose nodes run the reference drain.
func (p *Prototype) Rescan() *Prototype {
	q := *p
	q.naive = true
	return &q
}

// Name implements Protocol.
func (p *Prototype) Name() string { return p.name }

// SetDiag implements DiagSettable: nodes built after this call report
// ingest drops through d.
func (p *Prototype) SetDiag(d *Diag) { p.diag = d }

// NewNodes implements Protocol.
func (p *Prototype) NewNodes() ([]Node, error) {
	replicas := make([]replica, p.n)
	nodes := make([]Node, p.n)
	for i := range replicas {
		p.init(&replicas[i], sharegraph.ReplicaID(i), p.diag)
		nodes[i] = &replicas[i]
	}
	return nodes, nil
}

// NewNode builds replica i's node alone, reporting ingest drops through d
// — for a layer that runs on top of one node and counts its own drops.
func (p *Prototype) NewNode(i sharegraph.ReplicaID, d *Diag) Layered {
	n := new(replica)
	p.init(n, i, d)
	return n
}

func (p *Prototype) init(n *replica, id sharegraph.ReplicaID, d *Diag) {
	*n = replica{
		id: id, name: p.name, clock: p.clock(id), route: p.route(id),
		naive: p.naive, diag: d,
	}
	n.senders, n.τ = n.clock.Senders(), n.clock.Zero()
	n.store = make(map[sharegraph.Register]Value)
	n.resetPending()
}

// Layered is a prototype node as seen by a layer that runs on top of it —
// the client-server architecture of Section 6, whose servers admit client
// requests against τ_i and fold the client's timestamp into it before a
// write. Every node a Prototype builds implements it. The layer's node
// is hosted like any other: the sim.Space delivers to it, reports the
// applies to the oracle and then calls the layer's Settle, which serves
// the requests those applies unblocked.
type Layered interface {
	LivePendingCounter
	// Tau returns τ_i itself, not a copy: read-only, and valid until the
	// next call on the node.
	Tau() timestamp.Vec
	// RaiseTau raises τ_i to its element-wise maximum with T over al
	// (τ_i's positions first). T must not exceed τ_i at any Sender's
	// GatePos — the layer's own admission predicate has to guarantee it —
	// or updates already buffered behind that gate are skipped for good.
	RaiseTau(al timestamp.Alignment, T timestamp.Vec)
}

// pendingUpdate is one buffered update(k, T, x, v) message. T stays in
// wire form: meta is a node-owned copy of the envelope's Meta, or nil
// while T sits decoded in the head slot of from (only the indexed drain
// does that, and only for from's next sequence number).
type pendingUpdate struct {
	from     sharegraph.ReplicaID
	seq      uint64 // T's sequence number for this replica; 0 if untracked
	meta     []byte
	reg      sharegraph.Register
	val      Value
	metaOnly bool
	oracleID causality.UpdateID
}

// headSlot holds the decoded timestamp of one sender's buffered update
// with sequence number seq. The slot is current only while seq is the
// sender's next number; the gate never moves back, so once the update is
// applied the slot goes stale by itself. A fresh slot has seq 0, which no
// sender uses.
type headSlot struct {
	seq uint64
	ts  timestamp.Vec
}

// replica is one node of the prototype. J admits only a sender's next
// sequence number, so the indexed drain needs at most one decoded
// buffered timestamp per sender: head[k] holds the vector of k's update
// at τ[GatePos]+1, decoded into the slot at most once, and every other
// buffered update costs its wire bytes instead of a vector. Each arrival
// is first decoded into scratch, which validates it and yields its
// sequence number.
type replica struct {
	id      sharegraph.ReplicaID
	name    string
	clock   Clock
	senders []Sender // clock.Senders()
	route   Router
	diag    *Diag
	τ       timestamp.Vec
	store   map[sharegraph.Register]Value

	// The pending_i set: a flat buffer under the reference drain, else
	// per-sender queues keyed by sequence number plus the head slots.
	naive   bool
	pending []pendingUpdate
	q       ingest.SenderQueues[pendingUpdate]
	head    []headSlot

	// Reusable scratch, valid until the next call on this node.
	applied  []Applied
	scratch  timestamp.Vec // every arrival is decoded here first
	metaFree [][]byte      // buffered metadata copies, recycled on apply
	work     []sharegraph.ReplicaID
	inWork   []bool
	metaBuf  []byte
}

var (
	_ Snapshotter = (*replica)(nil)
	_ Layered     = (*replica)(nil)
)

func (n *replica) ID() sharegraph.ReplicaID { return n.id }

// HandleWrite implements step 2 of the prototype: write locally, then
// advance the timestamp and emit update(i, τ_i, x, v) to the replicas the
// router names.
func (n *replica) HandleWrite(x sharegraph.Register, v Value, id causality.UpdateID, out Sink) error {
	if !n.route.Stores(x) {
		return &NotStoredError{Replica: n.id, Register: x}
	}
	n.store[x] = v
	hops := n.route.Fanout(x)
	for i := range hops {
		n.send(&hops[i], v, id, out)
	}
	return nil
}

// send advances τ for one hop and emits its messages. The metadata is
// encoded into node-owned scratch and routers cache their hops, so the
// steady-state fanout performs no allocation; the sink owns copying what
// it retains.
func (n *replica) send(h *Hop, v Value, id causality.UpdateID, out Sink) {
	n.clock.Advance(n.τ, h.Reg, h.To)
	shared := false
	for idx, k := range h.To {
		if !shared {
			var meta timestamp.Vec
			meta, shared = n.clock.Meta(n.τ, k)
			n.metaBuf = timestamp.EncodeTo(n.metaBuf[:0], meta)
		}
		env := Envelope{From: n.id, To: k, Reg: h.Reg, Val: v, Meta: n.metaBuf, OracleID: id}
		if h.MetaOnly != nil && h.MetaOnly[idx] {
			env.Val, env.MetaOnly = 0, true
		}
		out.Emit(env)
	}
}

// HandleMessage implements steps 3–4: buffer the update, then apply
// buffered updates whose predicate J holds, merging timestamps as it
// goes, until none is deliverable. What a relaying router forwards is
// sent as each update is applied: apply order is the only order known to
// respect J, and two forwards over one edge must keep it.
//
// The returned Applied slice is owned by the node and valid until the
// next call on it.
func (n *replica) HandleMessage(env Envelope, out Sink) []Applied {
	ts, err := timestamp.DecodeInto(n.scratch, env.Meta)
	if err != nil {
		// A corrupt message indicates a harness bug, not a protocol state;
		// surface (rate-limited) but do not crash the run.
		n.diag.Dropf(n.id, "%s: replica %d dropping corrupt metadata from %d: %v", n.name, n.id, env.From, err)
		return nil
	}
	n.scratch = ts
	// Clocks and queues are indexed by sender, and predicates read the
	// decoded vector at fixed positions; a sender outside the replica set
	// or a wrong-length vector must be dropped, not dereferenced. The
	// vector is node scratch, so a flood of such frames allocates none.
	if int(env.From) < 0 || int(env.From) >= len(n.senders) {
		n.diag.Dropf(n.id, "%s: replica %d dropping update from invalid sender %d", n.name, n.id, env.From)
		return nil
	}
	k := &n.senders[env.From]
	if len(ts) != k.Len {
		n.diag.Dropf(n.id, "%s: replica %d dropping update from %d with %d-entry timestamp, want %d",
			n.name, n.id, env.From, len(ts), k.Len)
		return nil
	}
	u := pendingUpdate{
		from: env.From, reg: env.Reg, val: env.Val,
		metaOnly: env.MetaOnly, oracleID: env.OracleID,
	}
	if k.Tracked {
		u.seq = ts[k.SeqPos]
	}
	n.applied = n.applied[:0]
	if n.naive {
		u.meta = n.keep(env.Meta)
		n.pending = append(n.pending, u)
		n.drainRescan(out)
	} else if n.file(&u, env.Meta) {
		n.drainFrom(u.from, out)
	}
	return n.applied
}

// file buffers u, whose timestamp is decoded in n.scratch and encoded in
// meta, under its sequence number, and reports whether that number is
// exactly one past the gate, i.e. whether anything can have become
// deliverable. Such an update takes its sender's head slot: scratch is
// swapped in, not copied. Any other update keeps a copy of meta, and most
// take the O(1) false exit. Updates J can never admit park dead (see
// ingest.SenderQueues), so pending accounting matches the reference
// drain, which keeps rescanning them in vain.
//
// The slots are made on first use, because the sharded runtime builds
// thousands of nodes up front. Only the swap returns true, so they exist
// whenever a drain runs.
func (n *replica) file(u *pendingUpdate, meta []byte) bool {
	k := &n.senders[u.from]
	if !k.Tracked {
		u.meta = n.keep(meta)
		n.q.Park(*u)
		return false
	}
	gate := n.τ[k.GatePos]
	if u.seq == gate+1 {
		if _, dup := n.q.Peek(int(u.from), u.seq); !dup {
			if n.head == nil {
				n.head = make([]headSlot, len(n.senders))
			}
			h := &n.head[u.from]
			h.seq, h.ts, n.scratch = u.seq, n.scratch, h.ts
			return n.q.Offer(int(u.from), u.seq, gate, *u)
		}
	}
	u.meta = n.keep(meta)
	return n.q.Offer(int(u.from), u.seq, gate, *u)
}

// keep returns a node-owned copy of meta in storage apply recycles.
func (n *replica) keep(meta []byte) []byte {
	var b []byte
	if last := len(n.metaFree) - 1; last >= 0 {
		b, n.metaFree = n.metaFree[last], n.metaFree[:last]
	}
	return append(b[:0], meta...)
}

// decodeKept parses metadata that was validated when it arrived.
func decodeKept(dst timestamp.Vec, meta []byte) timestamp.Vec {
	v, err := timestamp.DecodeInto(dst, meta)
	if err != nil {
		panic("core: buffered metadata no longer decodes: " + err.Error())
	}
	return v
}

// headOf returns the timestamp of u, its sender's update at τ[GatePos]+1,
// decoding u's metadata into the sender's head slot unless the slot holds
// it already.
func (n *replica) headOf(u *pendingUpdate) timestamp.Vec {
	h := &n.head[u.from]
	if h.seq != u.seq {
		h.seq, h.ts = u.seq, decodeKept(h.ts, u.meta)
	}
	return h.ts
}

// drainFrom is the indexed drain. Like the reference drain it applies,
// until none is left, the deliverable update of the lowest-numbered sender
// (a sender has at most one: J admits one sequence number). J leaves the
// order of concurrent updates open; fixing it makes what a delivery
// applies and forwards, in order, the same under either drain.
//
// Nothing was deliverable before an update from k was filed, so the
// candidates are k's queue head and, after an apply from j, j's next head
// and those of the clock's recheck set. Only senders with filed updates
// enter the worklist, so their gate positions exist.
func (n *replica) drainFrom(k sharegraph.ReplicaID, out Sink) {
	work := append(n.work[:0], k)
	n.inWork[k] = true
	for len(work) > 0 {
		at := 0
		for idx, j := range work {
			if j < work[at] {
				at = idx
			}
		}
		j := work[at]
		seq := n.τ[n.senders[j].GatePos] + 1
		if u, ok := n.q.Peek(int(j), seq); ok && n.clock.Deliverable(n.τ, j, n.headOf(&u)) {
			n.q.Remove(int(j), seq)
			n.apply(&u, n.head[j].ts, out) // the gate passes seq: the slot is stale
			for _, m := range n.clock.Recheck(j) {
				if !n.inWork[m] && n.q.QueueLen(int(m)) > 0 {
					work = append(work, m)
					n.inWork[m] = true
				}
			}
			if n.q.QueueLen(int(j)) > 0 {
				continue // j's next head may be deliverable too
			}
		}
		// Nothing from j can apply until an apply rechecks it.
		work[at] = work[len(work)-1]
		work = work[:len(work)-1]
		n.inWork[j] = false
	}
	n.work = work
}

// drainRescan is the reference drain: rescan the whole buffer for the
// lowest-numbered sender's deliverable update, apply it, and repeat. It
// keeps no head slots and decodes into scratch at every check.
func (n *replica) drainRescan(out Sink) {
	for {
		next := -1
		for idx := range n.pending {
			u := &n.pending[idx]
			if next >= 0 && u.from >= n.pending[next].from {
				continue
			}
			n.scratch = decodeKept(n.scratch, u.meta)
			if n.clock.Deliverable(n.τ, u.from, n.scratch) {
				next = idx
			}
		}
		if next < 0 {
			return
		}
		u := n.pending[next]
		n.pending = append(n.pending[:next], n.pending[next+1:]...)
		n.scratch = decodeKept(n.scratch, u.meta)
		n.apply(&u, n.scratch, out)
	}
}

// apply is step 4 for one deliverable update, already unbuffered, whose
// decoded timestamp is ts: merge it and, unless the update is
// metadata-only, materialise it and send what the router forwards.
func (n *replica) apply(u *pendingUpdate, ts timestamp.Vec, out Sink) {
	n.clock.Merge(n.τ, u.from, ts)
	if u.meta != nil {
		n.metaFree = append(n.metaFree, u.meta)
	}
	if u.metaOnly {
		return
	}
	reg, ok, fwd := n.route.Deliver(u.reg)
	if ok {
		n.store[reg] = u.val
		n.applied = append(n.applied, Applied{OracleID: u.oracleID, From: u.from, Reg: reg, Val: u.val})
	}
	for i := range fwd {
		n.send(&fwd[i], u.val, u.oracleID, out)
	}
}

// Read implements step 1: respond with the local copy.
func (n *replica) Read(x sharegraph.Register) (Value, bool) {
	if !n.route.Stores(x) {
		return 0, false
	}
	return n.store[x], true
}

func (n *replica) PendingCount() int {
	if n.naive {
		return len(n.pending)
	}
	return n.q.Len()
}

// eachPending calls yield for every buffered update, dead-parked ones
// included, in unspecified order.
func (n *replica) eachPending(yield func(pendingUpdate)) {
	if !n.naive {
		n.q.All(yield)
		return
	}
	for _, u := range n.pending {
		yield(u)
	}
}

// PendingOracleIDs lists the buffered updates the oracle knows as sent to
// this replica: metadata-only messages and relay hops in transit (which
// name a register other than the one they materialise, if any) are
// protocol-internal.
func (n *replica) PendingOracleIDs() []causality.UpdateID {
	out := make([]causality.UpdateID, 0, n.PendingCount())
	n.eachPending(func(u pendingUpdate) {
		if reg, ok, _ := n.route.Deliver(u.reg); !u.metaOnly && ok && reg == u.reg {
			out = append(out, u.oracleID)
		}
	})
	return out
}

// LivePending implements LivePendingCounter. The reference drain applies
// to its flat buffer the staleness rule ingest.SenderQueues applies at
// filing time.
func (n *replica) LivePending() int {
	if !n.naive {
		return n.q.Live()
	}
	live := 0
	for _, u := range n.pending {
		if k := &n.senders[u.from]; k.Tracked && u.seq > n.τ[k.GatePos] {
			live++
		}
	}
	return live
}

func (n *replica) MetadataEntries() int { return n.clock.Entries() }

// Timestamp returns a copy of the node's current vector (diagnostics).
func (n *replica) Timestamp() timestamp.Vec { return n.τ.Clone() }

func (n *replica) Tau() timestamp.Vec { return n.τ }

func (n *replica) RaiseTau(al timestamp.Alignment, T timestamp.Vec) { al.MergeInto(n.τ, T) }

func (n *replica) resetPending() {
	n.pending = nil
	if !n.naive {
		n.q = ingest.NewSenderQueues[pendingUpdate](len(n.senders))
		n.inWork = make([]bool, len(n.senders))
		n.head = nil
	}
}

// Snapshot implements Snapshotter.
func (n *replica) Snapshot() *NodeCheckpoint {
	ck := &NodeCheckpoint{
		Replica: n.id,
		Tau:     n.τ.Clone(),
		Store:   make(map[sharegraph.Register]Value, len(n.store)),
	}
	for x, v := range n.store {
		ck.Store[x] = v
	}
	n.eachPending(func(u pendingUpdate) {
		meta := append([]byte(nil), u.meta...)
		if u.meta == nil { // held decoded in its sender's head slot
			meta = timestamp.Encode(n.head[u.from].ts)
		}
		ck.Pending = append(ck.Pending, Envelope{
			From: u.from, To: n.id, Reg: u.reg, Val: u.val,
			Meta: meta, OracleID: u.oracleID, MetaOnly: u.metaOnly,
		})
	})
	return ck
}

// Install implements Snapshotter.
func (n *replica) Install(ck *NodeCheckpoint) ([]Applied, error) {
	if ck == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	if ck.Replica != n.id {
		return nil, fmt.Errorf("core: checkpoint of replica %d installed at %d", ck.Replica, n.id)
	}
	switch {
	case ck.Tau == nil:
		// Store-only checkpoint (live reconfiguration): keep the fresh
		// zero vector — the new epoch starts with no tracked history.
		for i := range n.τ {
			n.τ[i] = 0
		}
	case len(ck.Tau) != len(n.τ):
		return nil, fmt.Errorf("core: checkpoint has %d timestamp entries, node tracks %d — different timestamp graphs",
			len(ck.Tau), len(n.τ))
	default:
		copy(n.τ, ck.Tau)
	}
	n.store = make(map[sharegraph.Register]Value, len(ck.Store))
	for x, v := range ck.Store {
		n.store[x] = v
	}
	n.resetPending()
	var out []Applied
	for _, env := range ck.Pending {
		// HandleMessage decodes Meta into node scratch and copies what it
		// buffers, so the checkpoint's buffers stay untouched and
		// reusable. The pendings were undeliverable at snapshot time and
		// the restored τ is identical, so nothing is re-emitted into the
		// discard sink.
		out = append(out, n.HandleMessage(env, DiscardSink{})...)
	}
	return out, nil
}
