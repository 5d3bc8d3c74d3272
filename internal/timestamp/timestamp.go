// Package timestamp implements the edge-indexed vector timestamps of
// Section 3.3 of Xiang & Vaidya (PODC 2019): each replica i keeps one
// integer counter per edge of its timestamp graph G_i, and the three
// protocol operations — advance (on local writes), merge (on applying a
// remote update) and the delivery predicate J — manipulate those counters.
//
// Timestamps of different replicas have different lengths and are indexed
// by different edge sets; a Space precomputes, as Alignments, the pairwise
// intersections E_i ∩ E_k that merge and J operate on, so the per-operation
// cost is linear in the intersection size with no map lookups. An Alignment
// is a list of runs of edges that sit at consecutive positions in both
// orders: on the dense graphs where every replica tracks every edge, each
// pair is one run and merge is a plain two-slice max loop.
package timestamp

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/sharegraph"
)

// Vec is an edge-indexed vector timestamp. Position p counts updates on
// the p-th edge of the owner's timestamp-graph edge order.
type Vec []uint64

// Clone returns an independent copy of the vector.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Equal reports whether two vectors are identical.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// String renders the raw counter values.
func (v Vec) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// span is a run of n edges at positions a, a+1, … in the first order and
// b, b+1, … in the second.
type span struct{ a, b, n int }

// Alignment lists the edges two timestamp graphs both track as maximal
// runs of positions that are consecutive in both orders, in the first
// graph's edge order. Vectors of different owners are only ever combined
// through one, built when the graphs are known; how it is laid out is
// known to its methods alone.
//
// One form covers every case: an identity pair (both replicas track the
// same edges, as on every dense topology) is a single run, a scattered
// intersection is runs of length 1, and anything between costs one run
// per gap.
type Alignment []span

// add appends the pair (a, b), extending the last run when it continues
// it.
func (al Alignment) add(a, b int) Alignment {
	if last := len(al) - 1; last >= 0 && al[last].a+al[last].n == a && al[last].b+al[last].n == b {
		al[last].n++
		return al
	}
	return append(al, span{a: a, b: b, n: 1})
}

// Align builds the alignment of a's and b's edge orders over E_a ∩ E_b.
// Every TSGraph lists its edges sorted by (From, To), so this is one merge
// pass.
func Align(a, b *sharegraph.TSGraph) Alignment {
	ea, eb := a.Edges(), b.Edges()
	var al Alignment
	for i, j := 0, 0; i < len(ea) && j < len(eb); {
		c := cmp.Compare(ea[i].From, eb[j].From)
		if c == 0 {
			c = cmp.Compare(ea[i].To, eb[j].To)
		}
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			al = al.add(i, j)
			i, j = i+1, j+1
		}
	}
	return al
}

// Keep returns the part of al whose edges — a is the first graph al was
// built from — keep accepts.
func (al Alignment) Keep(a *sharegraph.TSGraph, keep func(sharegraph.Edge) bool) Alignment {
	var out Alignment
	for _, r := range al {
		for p := 0; p < r.n; p++ {
			if keep(a.Edges()[r.a+p]) {
				out = out.add(r.a+p, r.b+p)
			}
		}
	}
	return out
}

// MergeInto raises dst, indexed by the first graph, to the element-wise
// maximum with src, indexed by the second, over the aligned edges.
func (al Alignment) MergeInto(dst, src Vec) {
	for _, r := range al {
		d := dst[r.a : r.a+r.n]
		s := src[r.b : r.b+len(d)]
		for i := range d {
			d[i] = max(d[i], s[i]) // branch-free: no mispredictions on scattered changes
		}
	}
}

// Dominates reports whether dst ≥ src on every aligned edge. It is kept
// small enough that Space.Deliverable, which inlines it, is inlined in
// turn.
func (al Alignment) Dominates(dst, src Vec) bool {
	for _, r := range al {
		// Every run has a first edge; J's incoming edges are mostly
		// scattered, so most runs have nothing else.
		if dst[r.a] < src[r.b] {
			return false
		}
		for p := range r.n - 1 {
			if dst[r.a+1+p] < src[r.b+1+p] {
				return false
			}
		}
	}
	return true
}

// deliveryPlan precomputes what predicate J(i, ·, k, ·) inspects for a
// fixed (receiver i, sender k) pair: the position of e_{ki} in both
// vectors, and the aligned positions of every other incoming edge
// e_{ji} ∈ E_i ∩ E_k (j ≠ k).
type deliveryPlan struct {
	valid    bool
	ekiRecv  int // index of e_{ki} in τ_i
	ekiSend  int // index of e_{ki} in T (sender's order)
	incoming Alignment
}

// Space holds the per-replica timestamp graphs plus every precomputed
// intersection and delivery plan. One Space is shared by all replicas of
// a system; it is immutable after construction and safe for concurrent
// use.
type Space struct {
	graphs []*sharegraph.TSGraph
	// advanceIdx[i][x] lists the positions in τ_i that a write to x at i
	// increments: edges e_{ij} with x ∈ X_ij.
	advanceIdx []map[sharegraph.Register][]int
	// inter[i][k] aligns E_i ∩ E_k as runs of (pos in τ_i, pos in τ_k),
	// for the pairs with a valid plan.
	inter [][]Alignment
	// plans[i][k] is the predicate-J plan for i receiving from k.
	plans [][]deliveryPlan
	// recheck[i][k] lists the senders whose predicate J(i, ·, m, ·) reads
	// the counter of e_{ki} and can therefore flip to true when replica i
	// applies an update from k: k itself (whose gate just advanced) plus
	// every m with e_{ki} ∈ E_m. No other predicate at i can change,
	// because merge leaves all other incoming-edge counters untouched
	// (J's second clause guarantees τ_i already dominates them).
	recheck [][][]sharegraph.ReplicaID
}

// NewSpace builds a Space for the given share graph and per-replica
// timestamp graphs. graphs[i].Owner must be i; graphs typically come from
// sharegraph.BuildAllTSGraphs, but optimized or truncated edge sets
// (Appendix D) are accepted as long as each still contains the edges the
// delivery predicate needs for the pairs that actually exchange updates.
func NewSpace(g *sharegraph.Graph, graphs []*sharegraph.TSGraph) (*Space, error) {
	n := g.NumReplicas()
	if len(graphs) != n {
		return nil, fmt.Errorf("timestamp: have %d timestamp graphs for %d replicas", len(graphs), n)
	}
	for i, tg := range graphs {
		if tg.Owner != sharegraph.ReplicaID(i) {
			return nil, fmt.Errorf("timestamp: graph %d has owner %d", i, tg.Owner)
		}
	}
	s := &Space{
		graphs:     graphs,
		advanceIdx: make([]map[sharegraph.Register][]int, n),
		inter:      make([][]Alignment, n),
		plans:      make([][]deliveryPlan, n),
		recheck:    make([][][]sharegraph.ReplicaID, n),
	}
	for i := 0; i < n; i++ {
		ri := sharegraph.ReplicaID(i)
		s.advanceIdx[i] = make(map[sharegraph.Register][]int)
		for _, j := range g.Neighbors(ri) {
			e := sharegraph.Edge{From: ri, To: j}
			idx, ok := graphs[i].Index(e)
			if !ok {
				continue // truncated edge sets may omit even incident edges
			}
			for x := range g.Shared(ri, j) {
				s.advanceIdx[i][x] = append(s.advanceIdx[i][x], idx)
			}
		}
		s.inter[i] = make([]Alignment, n)
		s.plans[i] = make([]deliveryPlan, n)
		for k := 0; k < n; k++ {
			if k == i {
				continue
			}
			// Predicate J reads e_{ki} in both vectors; without it on both
			// sides k's updates are never admitted here, and only a
			// diagnostic will ask how the pair aligns (see align).
			eki := sharegraph.Edge{From: sharegraph.ReplicaID(k), To: ri}
			recvIdx, okR := graphs[i].Index(eki)
			sendIdx, okS := graphs[k].Index(eki)
			if !okR || !okS {
				continue
			}
			s.inter[i][k] = Align(graphs[i], graphs[k])
			s.plans[i][k] = deliveryPlan{valid: true, ekiRecv: recvIdx, ekiSend: sendIdx,
				incoming: s.inter[i][k].Keep(graphs[i], func(e sharegraph.Edge) bool { return e.To == ri && e.From != eki.From })}
		}
		s.recheck[i] = buildRecheck(s.plans[i])
	}
	return s, nil
}

// buildRecheck derives, for each sender k, the senders whose delivery
// predicate at this receiver inspects the counter of e_{ki}: k itself plus
// every m whose plan covers e_{ki}'s receiver position with one of its
// incoming runs.
func buildRecheck(plans []deliveryPlan) [][]sharegraph.ReplicaID {
	out := make([][]sharegraph.ReplicaID, len(plans))
	for k := range plans {
		if !plans[k].valid {
			continue
		}
		pos := plans[k].ekiRecv
		lst := []sharegraph.ReplicaID{sharegraph.ReplicaID(k)}
		for m := range plans {
			if m == k || !plans[m].valid {
				continue
			}
			for _, r := range plans[m].incoming {
				if r.a <= pos && pos < r.a+r.n {
					lst = append(lst, sharegraph.ReplicaID(m))
					break
				}
			}
		}
		out[k] = lst
	}
	return out
}

// Graph returns replica i's timestamp graph.
func (s *Space) Graph(i sharegraph.ReplicaID) *sharegraph.TSGraph { return s.graphs[i] }

// NumReplicas returns the number of replicas the space was built for.
func (s *Space) NumReplicas() int { return len(s.graphs) }

// Zero returns replica i's initial timestamp: all counters zero.
func (s *Space) Zero(i sharegraph.ReplicaID) Vec {
	return make(Vec, s.graphs[i].Len())
}

// Len returns |E_i|, the number of counters in replica i's timestamp.
func (s *Space) Len(i sharegraph.ReplicaID) int { return s.graphs[i].Len() }

// Advance implements advance(i, τ_i, x, v): it returns a new vector with
// the counters of edges e_{ij} such that x ∈ X_ij incremented (the write's
// value v does not influence the timestamp). τ is not modified.
func (s *Space) Advance(i sharegraph.ReplicaID, τ Vec, x sharegraph.Register) Vec {
	out := τ.Clone()
	for _, idx := range s.advanceIdx[i][x] {
		out[idx]++
	}
	return out
}

// AdvanceInPlace is Advance without the defensive copy, for hot paths
// that own τ.
func (s *Space) AdvanceInPlace(i sharegraph.ReplicaID, τ Vec, x sharegraph.Register) {
	for _, idx := range s.advanceIdx[i][x] {
		τ[idx]++
	}
}

// AdvanceIndexes returns the positions in τ_i incremented by a write to x
// at replica i (diagnostics and compression use this).
func (s *Space) AdvanceIndexes(i sharegraph.ReplicaID, x sharegraph.Register) []int {
	return s.advanceIdx[i][x]
}

// SeqPos returns the position of e_{ki} in SENDER k's edge order. Because
// every update k sends to i is a write to some register in X_ki, advance
// increments that counter on exactly the writes i receives, so the value
// at this position is a consecutive per-receiver sequence number
// (1, 2, 3, …): the key the indexed delivery engine files pending updates
// under. ok is false when either side does not track e_{ki}, in which case
// predicate J can never admit an update from k at i.
func (s *Space) SeqPos(i, k sharegraph.ReplicaID) (int, bool) {
	p := &s.plans[i][k]
	return p.ekiSend, p.valid
}

// GatePos returns the position of e_{ki} in RECEIVER i's edge order — the
// "gate" counter that predicate J compares the sender sequence number
// against: an update with sequence s is deliverable only once
// τ_i[gate] = s − 1.
func (s *Space) GatePos(i, k sharegraph.ReplicaID) (int, bool) {
	p := &s.plans[i][k]
	return p.ekiRecv, p.valid
}

// RecheckOnApply returns the senders whose delivery predicate at i may
// newly hold after i applies an update from k (k first, then every sender
// whose predicate reads e_{ki}). The slice is shared; callers must not
// modify it.
func (s *Space) RecheckOnApply(i, k sharegraph.ReplicaID) []sharegraph.ReplicaID {
	return s.recheck[i][k]
}

// Merge implements merge(i, τ_i, k, T): element-wise max over E_i ∩ E_k,
// leaving counters for E_i − E_k untouched. τ is not modified.
func (s *Space) Merge(i sharegraph.ReplicaID, τ Vec, k sharegraph.ReplicaID, T Vec) Vec {
	out := τ.Clone()
	s.align(i, k).MergeInto(out, T)
	return out
}

// align returns the alignment of E_i and E_k: precomputed for the pairs that
// exchange updates, built on the spot for any other a diagnostic asks about.
func (s *Space) align(i, k sharegraph.ReplicaID) Alignment {
	if al := s.inter[i][k]; al != nil {
		return al
	}
	return Align(s.graphs[i], s.graphs[k])
}

// MergeInPlace is Merge without the defensive copy, for hot paths that own τ.
func (s *Space) MergeInPlace(i sharegraph.ReplicaID, τ Vec, k sharegraph.ReplicaID, T Vec) {
	s.align(i, k).MergeInto(τ, T)
}

// Deliverable implements predicate J(i, τ_i, k, T) for k ≠ i:
//
//	τ_i[e_ki] = T[e_ki] − 1, and
//	τ_i[e_ji] ≥ T[e_ji] for every e_ji ∈ E_i ∩ E_k with j ≠ k.
//
// It reports false when e_ki is untracked by either side (which cannot
// happen for updates the protocol actually sends, since senders share a
// register with recipients).
func (s *Space) Deliverable(i sharegraph.ReplicaID, τ Vec, k sharegraph.ReplicaID, T Vec) bool {
	plan := &s.plans[i][k]
	return plan.valid && τ[plan.ekiRecv] == T[plan.ekiSend]-1 && plan.incoming.Dominates(τ, T)
}

// EncodedSize returns the number of bytes Encode will produce for v.
func EncodedSize(v Vec) int {
	n := uvarintLen(uint64(len(v)))
	for _, x := range v {
		n += uvarintLen(x)
	}
	return n
}

// uvarintLen is the length of x's varint: one byte per started 7 bits.
func uvarintLen(x uint64) int { return 1 + (bits.Len64(x|1)-1)/7 }

// Encode serializes v with varint encoding (length-prefixed). The wire
// format is what the metadata-size experiments measure.
func Encode(v Vec) []byte {
	return EncodeTo(make([]byte, 0, EncodedSize(v)), v)
}

// EncodeTo appends the encoding of v to dst and returns the extended
// slice, allocating only if dst lacks capacity. Hot paths size dst with
// EncodedSize and reuse it across calls. Most counters are below 128 and
// take the one-byte path.
func EncodeTo(dst []byte, v Vec) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		if x < 0x80 {
			dst = append(dst, byte(x))
		} else {
			dst = binary.AppendUvarint(dst, x)
		}
	}
	return dst
}

// Decode parses a vector produced by Encode.
func Decode(data []byte) (Vec, error) {
	return DecodeInto(nil, data)
}

// DecodeInto parses a vector produced by Encode into dst's storage,
// growing it only when the capacity is insufficient, and returns the
// parsed vector. On error dst's contents are unspecified but its storage
// is still usable for a later call. The delivery engines decode into
// node-owned vectors through DecodeInto so steady-state message ingestion
// does not allocate. Most counters take one byte and nearly all the rest
// two, so both have a path of their own.
func DecodeInto(dst Vec, data []byte) (Vec, error) {
	ln, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("timestamp: corrupt length prefix")
	}
	// Clamp the declared element count against the bytes actually present
	// AFTER the prefix (each element takes at least one byte) before any
	// allocation: a corrupt or adversarial length must fail here, not
	// drive a huge make or survive to a partial parse.
	if ln > uint64(len(data)-n) {
		return nil, fmt.Errorf("timestamp: implausible length %d for %d payload bytes", ln, len(data)-n)
	}
	var out Vec
	if uint64(cap(dst)) >= ln {
		out = dst[:ln]
	} else {
		out = make(Vec, ln)
	}
	p := n
	for i := range out {
		if uint(p) < uint(len(data)) && data[p] < 0x80 {
			out[i] = uint64(data[p])
			p++
			continue
		}
		if uint(p+1) < uint(len(data)) && data[p+1] < 0x80 {
			out[i] = uint64(data[p]&0x7f) | uint64(data[p+1])<<7
			p += 2
			continue
		}
		x, m := binary.Uvarint(data[p:])
		if m <= 0 {
			return nil, fmt.Errorf("timestamp: corrupt element %d", i)
		}
		out[i] = x
		p += m
	}
	if p != len(data) {
		return nil, fmt.Errorf("timestamp: %d trailing bytes", len(data)-p)
	}
	return out, nil
}
