// Package baseline implements the comparison protocols the paper's
// narrative positions the edge-indexed algorithm against. Each is core's
// replica prototype with a different clock — a timestamp layout with its
// own advance, merge and predicate J — and nothing else: storing,
// buffering, draining, routing and checkpointing are the prototype's.
//
//   - FIFOOnly: per-channel sequence numbers. FIFO delivery is sound, but
//     causal consistency fails on transitive dependencies through third
//     replicas — the executable form of Theorem 8's necessity argument
//     (a replica oblivious to non-incident tracked edges violates safety).
//
//   - NaiveVector: classic length-R vector timestamps applied naively to
//     partial replication, with updates sent only to register sharers.
//     Safety holds (the predicate is conservative) but liveness fails:
//     a replica can wait forever for an update it was never sent —
//     exactly why the full-replication recipe does not transfer.
//
//   - Broadcast: the Section 5 "dummy registers everywhere" emulation of
//     full replication: NaiveVector's clock, routed to every replica.
//     Length-R vectors suffice and liveness holds, paid for with a
//     metadata message to every replica on every write plus false
//     dependencies.
//
//   - Matrix: an R×R matrix clock in the style of Raynal–Schiper–Toueg
//     causal multicast (the Full-Track family of Shen et al.). Safe and
//     live under partial replication, with quadratic metadata.
//
// The *Rescan constructors build the same protocol with the prototype's
// reference drain, for differential tests against the indexed one.
package baseline

import (
	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/timestamp"
)

// newProtocol is the prototype over g with the given clock, sending
// updates to the register's holders — and, with everyone set, the
// timestamp alone to all other replicas.
func newProtocol(name string, g *sharegraph.Graph, everyone bool, clock func(sharegraph.ReplicaID) core.Clock) *core.Prototype {
	return core.NewPrototype(name, g.NumReplicas(), clock, core.ShareRoutes(g, nil, everyone))
}

// dense is what the clocks whose vectors have one fixed length share: the
// per-sender table, and the list 0..n−1 of replicas — after an apply from
// any sender, their predicates may newly hold for every other one.
type dense struct {
	senders []core.Sender
	all     []sharegraph.ReplicaID
}

// newDense builds the table for n replicas exchanging vectors of the
// given length, where pos(k) is both the position of sender k's sequence
// number in its vector and of the counter gating k here.
func newDense(n, length int, pos func(k int) int) dense {
	d := dense{senders: make([]core.Sender, n), all: make([]sharegraph.ReplicaID, n)}
	for k := range d.senders {
		d.senders[k] = core.Sender{Len: length, SeqPos: pos(k), GatePos: pos(k), Tracked: true}
		d.all[k] = sharegraph.ReplicaID(k)
	}
	return d
}

func (d dense) Senders() []core.Sender                              { return d.senders }
func (d dense) Recheck(sharegraph.ReplicaID) []sharegraph.ReplicaID { return d.all }

// Merge is the element-wise maximum.
func (d dense) Merge(τ timestamp.Vec, _ sharegraph.ReplicaID, T timestamp.Vec) {
	for p, t := range T {
		if t > τ[p] {
			τ[p] = t
		}
	}
}

// Meta: every recipient is sent the whole clock.
func (d dense) Meta(τ timestamp.Vec, _ sharegraph.ReplicaID) (timestamp.Vec, bool) { return τ, true }

// ---------------------------------------------------------------------------
// FIFOOnly

// FIFOOnly delivers updates from each sender in send order and nothing
// more. Its per-replica metadata is one counter per neighbour pair —
// deliberately below the Theorem 8 minimum whenever any timestamp graph
// has a non-incident edge, making it the negative control the oracle
// catches.
type FIFOOnly struct{ core.Prototype }

// NewFIFOOnly builds the protocol.
func NewFIFOOnly(g *sharegraph.Graph) *FIFOOnly {
	n := g.NumReplicas()
	senders := make([]core.Sender, n)
	for k := range senders {
		senders[k] = core.Sender{Len: 1, SeqPos: 0, GatePos: n + k, Tracked: true}
	}
	return &FIFOOnly{*newProtocol("fifo-only", g, false, func(i sharegraph.ReplicaID) core.Clock {
		return &fifoClock{senders: senders, degree: g.Degree(i), seq: make(timestamp.Vec, 1)}
	})}
}

// NewFIFOOnlyRescan builds the protocol with the reference drain.
func NewFIFOOnlyRescan(g *sharegraph.Graph) *FIFOOnly {
	return &FIFOOnly{*NewFIFOOnly(g).Rescan()}
}

// fifoClock keeps, for every other replica k of n, the number of updates
// sent to k at τ[k] and received from k at τ[n+k]. A message carries only
// its own sequence number, so the predicate involves the sender's counter
// alone and an apply unblocks nobody else.
type fifoClock struct {
	senders []core.Sender
	degree  int
	seq     timestamp.Vec // Meta scratch
}

func (c *fifoClock) Zero() timestamp.Vec    { return make(timestamp.Vec, 2*len(c.senders)) }
func (c *fifoClock) Entries() int           { return 2 * c.degree }
func (c *fifoClock) Senders() []core.Sender { return c.senders }

func (c *fifoClock) Advance(τ timestamp.Vec, _ sharegraph.Register, to []sharegraph.ReplicaID) {
	for _, k := range to {
		τ[k]++
	}
}

func (c *fifoClock) Meta(τ timestamp.Vec, k sharegraph.ReplicaID) (timestamp.Vec, bool) {
	c.seq[0] = τ[k]
	return c.seq, false
}

func (c *fifoClock) Deliverable(τ timestamp.Vec, k sharegraph.ReplicaID, T timestamp.Vec) bool {
	return T[0] == τ[c.senders[k].GatePos]+1
}

func (c *fifoClock) Merge(τ timestamp.Vec, k sharegraph.ReplicaID, T timestamp.Vec) {
	τ[c.senders[k].GatePos] = T[0]
}

func (c *fifoClock) Recheck(sharegraph.ReplicaID) []sharegraph.ReplicaID { return nil }

// ---------------------------------------------------------------------------
// NaiveVector and Broadcast

// NaiveVector applies full-replication vector clocks to partial
// replication without metadata broadcast. See the package comment: safe
// but not live.
type NaiveVector struct{ core.Prototype }

// NewNaiveVector builds the protocol.
func NewNaiveVector(g *sharegraph.Graph) *NaiveVector {
	return &NaiveVector{*newVector("naive-vector", g, false)}
}

// NewNaiveVectorRescan builds the protocol with the reference drain.
func NewNaiveVectorRescan(g *sharegraph.Graph) *NaiveVector {
	return &NaiveVector{*NewNaiveVector(g).Rescan()}
}

// Broadcast is the Section 5 dummy-register emulation of full
// replication: length-R vectors plus metadata-only broadcast.
type Broadcast struct{ core.Prototype }

// NewBroadcast builds the protocol.
func NewBroadcast(g *sharegraph.Graph) *Broadcast {
	return &Broadcast{*newVector("dummy-broadcast", g, true)}
}

// NewBroadcastRescan builds the protocol with the reference drain.
func NewBroadcastRescan(g *sharegraph.Graph) *Broadcast {
	return &Broadcast{*NewBroadcast(g).Rescan()}
}

func newVector(name string, g *sharegraph.Graph, everyone bool) *core.Prototype {
	n := g.NumReplicas()
	d := newDense(n, n, func(k int) int { return k })
	clocks := make([]core.Clock, n)
	for i := range clocks {
		clocks[i] = vectorClock{dense: d, i: sharegraph.ReplicaID(i)}
	}
	return newProtocol(name, g, everyone, func(i sharegraph.ReplicaID) core.Clock { return clocks[i] })
}

// vectorClock is the classic causal-broadcast clock: τ[l] counts the
// writes of replica l applied here. An apply advances only τ[from] (all
// other entries were already dominated), and any sender's head may have
// been waiting on exactly that.
type vectorClock struct {
	dense
	i sharegraph.ReplicaID
}

func (c vectorClock) Zero() timestamp.Vec { return make(timestamp.Vec, len(c.all)) }
func (c vectorClock) Entries() int        { return len(c.all) }

func (c vectorClock) Advance(τ timestamp.Vec, _ sharegraph.Register, _ []sharegraph.ReplicaID) {
	τ[c.i]++
}

// Deliverable is the causal-broadcast condition: T[from] = τ[from] + 1
// and T[l] ≤ τ[l] for l ≠ from.
func (c vectorClock) Deliverable(τ timestamp.Vec, from sharegraph.ReplicaID, T timestamp.Vec) bool {
	if T[from] != τ[from]+1 {
		return false
	}
	for l := range τ {
		if sharegraph.ReplicaID(l) != from && T[l] > τ[l] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Matrix

// Matrix is the R×R matrix-clock protocol (Raynal–Schiper–Toueg style):
// entry (l, d) counts the messages l is known to have sent to d. Safe and
// live under partial replication at quadratic metadata cost.
type Matrix struct{ core.Prototype }

// NewMatrix builds the protocol.
func NewMatrix(g *sharegraph.Graph) *Matrix {
	r := g.NumReplicas()
	clocks := make([]core.Clock, r)
	for i := range clocks {
		clocks[i] = matrixClock{dense: newDense(r, r*r, func(k int) int { return k*r + i }), row: i * r}
	}
	return &Matrix{*newProtocol("matrix", g, false, func(i sharegraph.ReplicaID) core.Clock { return clocks[i] })}
}

// NewMatrixRescan builds the protocol with the reference drain.
func NewMatrixRescan(g *sharegraph.Graph) *Matrix {
	return &Matrix{*NewMatrix(g).Rescan()}
}

// matrixClock is row-major r×r: τ[l*r+d] = messages l is known to have
// sent to d; row is the offset of this replica's own row. The predicate
// reads only this replica's column — the sender's entry there is a
// per-receiver sequence number, every other one must be dominated — so it
// has the vector predicate's shape and the same recheck set.
type matrixClock struct {
	dense
	row int
}

func (c matrixClock) Zero() timestamp.Vec { return make(timestamp.Vec, len(c.all)*len(c.all)) }
func (c matrixClock) Entries() int        { return len(c.all) * len(c.all) }

func (c matrixClock) Advance(τ timestamp.Vec, _ sharegraph.Register, to []sharegraph.ReplicaID) {
	for _, d := range to {
		τ[c.row+int(d)]++
	}
}

// Deliverable: T[from][i] = τ[from][i] + 1 (FIFO from the sender) and
// T[l][i] ≤ τ[l][i] for every l ≠ from (all messages to i that the sender
// knew about have arrived).
func (c matrixClock) Deliverable(τ timestamp.Vec, from sharegraph.ReplicaID, T timestamp.Vec) bool {
	if p := c.senders[from].GatePos; T[p] != τ[p]+1 {
		return false
	}
	for l, k := range c.senders {
		if p := k.GatePos; sharegraph.ReplicaID(l) != from && T[p] > τ[p] {
			return false
		}
	}
	return true
}
