package timestamp

// The reference forms the production alignment and codec are pinned to:
// an alignment as one (position, position) pair per shared edge, and the
// codec as one Uvarint/PutUvarint call per element. checkAlignment and
// checkSpace compare the run form against the pair form on any graphs.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sharegraph"
)

// pairIdx aligns one edge's position in two different timestamp orders.
type pairIdx struct {
	a int // index in the first vector
	b int // index in the second vector
}

// refAlignment lists E_a ∩ E_b as aligned positions, in the first graph's
// edge order.
type refAlignment []pairIdx

func refAlign(a, b *sharegraph.TSGraph) refAlignment {
	ea, eb := a.Edges(), b.Edges()
	al := make(refAlignment, 0, min(len(ea), len(eb)))
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
			al = append(al, pairIdx{a: i, b: j})
			i, j = i+1, j+1
		}
	}
	return al
}

func (al refAlignment) Keep(a *sharegraph.TSGraph, keep func(sharegraph.Edge) bool) refAlignment {
	var out refAlignment
	for _, p := range al {
		if keep(a.Edges()[p.a]) {
			out = append(out, p)
		}
	}
	return out
}

func (al refAlignment) MergeInto(dst, src Vec) {
	for _, p := range al {
		if src[p.b] > dst[p.a] {
			dst[p.a] = src[p.b]
		}
	}
}

func (al refAlignment) Dominates(dst, src Vec) bool {
	for _, p := range al {
		if dst[p.a] < src[p.b] {
			return false
		}
	}
	return true
}

// pairs expands al's runs into the pair form.
func (al Alignment) pairs() refAlignment {
	var out refAlignment
	for _, r := range al {
		for p := 0; p < r.n; p++ {
			out = append(out, pairIdx{a: r.a + p, b: r.b + p})
		}
	}
	return out
}

// checkRuns fails unless al's runs are non-empty, in order, and maximal:
// no run could be joined to the one before it.
func checkRuns(t testing.TB, what string, al Alignment) {
	t.Helper()
	for x, r := range al {
		if r.n < 1 {
			t.Fatalf("%s: run %d = %+v is empty", what, x, r)
		}
		if x > 0 {
			if q := al[x-1]; q.a+q.n == r.a && q.b+q.n == r.b {
				t.Fatalf("%s: runs %+v and %+v could be one", what, q, r)
			}
		}
	}
}

// checkAlignment pins Align(gi, gk) and its Keep, MergeInto and Dominates
// to the pair form and to TSGraph.Intersection, on vectors drawn from rng.
// It reports whether any aligned edge sits at different positions in the
// two orders.
func checkAlignment(t testing.TB, rng *rand.Rand, gi, gk *sharegraph.TSGraph) (nonIdentity bool) {
	t.Helper()
	what := fmt.Sprintf("Align(%d: %d edges, %d: %d edges)", gi.Owner, gi.Len(), gk.Owner, gk.Len())
	al, ref := Align(gi, gk), refAlign(gi, gk)
	checkRuns(t, what, al)
	if got := al.pairs(); !slices.Equal(got, ref) {
		t.Fatalf("%s = %v, pair form %v", what, got, ref)
	}
	want := gi.Intersection(gk)
	if len(want) != len(ref) {
		t.Fatalf("%s has %d pairs, Intersection %d", what, len(ref), len(want))
	}
	for p, pr := range want {
		if ref[p].a != pr[0] || ref[p].b != pr[1] {
			t.Fatalf("%s[%d] = %+v, Intersection %v", what, p, ref[p], pr)
		}
		nonIdentity = nonIdentity || pr[0] != pr[1]
	}
	into := func(e sharegraph.Edge) bool { return e.To == gi.Owner }
	kept := al.Keep(gi, into)
	checkRuns(t, what+" kept", kept)
	if got, want := kept.pairs(), ref.Keep(gi, into); !slices.Equal(got, want) {
		t.Fatalf("%s kept to edges into %d = %v, want %v", what, gi.Owner, got, want)
	}
	dst, src := randomSmallVec(rng, gi.Len()), randomSmallVec(rng, gk.Len())
	checkMergeDominates(t, rng, what, al, ref, dst, src)
	checkMergeDominates(t, rng, what+" kept", kept, ref.Keep(gi, into), dst, src)
	return nonIdentity
}

// checkMergeDominates compares MergeInto and Dominates with the pair form
// on (dst, src), on the merge of the two (which dominates src), and on
// that merge lowered below src at one aligned position.
func checkMergeDominates(t testing.TB, rng *rand.Rand, what string, al Alignment, ref refAlignment, dst, src Vec) {
	t.Helper()
	if got, want := al.Dominates(dst, src), ref.Dominates(dst, src); got != want {
		t.Fatalf("%s.Dominates = %v, pair form %v", what, got, want)
	}
	got, want := dst.Clone(), dst.Clone()
	al.MergeInto(got, src)
	ref.MergeInto(want, src)
	if !got.Equal(want) {
		t.Fatalf("%s.MergeInto = %v, pair form %v", what, got, want)
	}
	if !al.Dominates(got, src) {
		t.Fatalf("%s: merge result %v does not dominate %v", what, got, src)
	}
	if len(ref) == 0 {
		return
	}
	p := ref[rng.Intn(len(ref))]
	if src[p.b] == 0 {
		return
	}
	got[p.a] = src[p.b] - 1
	if al.Dominates(got, src) || ref.Dominates(got, src) {
		t.Fatalf("%s: %v dominates %v although position %d is lower", what, got, src, p.a)
	}
}

// refDeliverable is predicate J read off the pair form.
func refDeliverable(s *Space, i sharegraph.ReplicaID, τ Vec, k sharegraph.ReplicaID, T Vec) bool {
	gi, gk := s.Graph(i), s.Graph(k)
	eki := sharegraph.Edge{From: k, To: i}
	recv, okR := gi.Index(eki)
	send, okS := gk.Index(eki)
	if !okR || !okS {
		return false
	}
	return τ[recv] == T[send]-1 && refIncoming(gi, gk).Dominates(τ, T)
}

// refIncoming is the pair form of the edges into gi's owner that J reads
// for sender gk's owner.
func refIncoming(gi, gk *sharegraph.TSGraph) refAlignment {
	return refAlign(gi, gk).Keep(gi, func(e sharegraph.Edge) bool { return e.To == gi.Owner && e.From != gk.Owner })
}

// checkSpace pins every ordered pair of s — precomputed or not — to the
// pair form: Merge, the plan's incoming runs, Deliverable on random, gated
// and one-short vectors, and the recheck lists.
func checkSpace(t testing.TB, rng *rand.Rand, s *Space) {
	t.Helper()
	n := s.NumReplicas()
	for i := 0; i < n; i++ {
		ri := sharegraph.ReplicaID(i)
		incoming := make([]refAlignment, n) // by sender, for the plans that exist
		for k := 0; k < n; k++ {
			rk := sharegraph.ReplicaID(k)
			if k == i {
				continue
			}
			gi, gk := s.Graph(ri), s.Graph(rk)
			τ, T := randomSmallVec(rng, gi.Len()), randomSmallVec(rng, gk.Len())
			want := τ.Clone()
			refAlign(gi, gk).MergeInto(want, T)
			if got := s.Merge(ri, τ, rk, T); !got.Equal(want) {
				t.Fatalf("Space.Merge(%d ← %d) = %v, pair form %v", i, k, got, want)
			}
			if got, want := s.Deliverable(ri, τ, rk, T), refDeliverable(s, ri, τ, rk, T); got != want {
				t.Fatalf("Space.Deliverable(%d ← %d) = %v, pair form %v", i, k, got, want)
			}
			plan := &s.plans[i][k]
			if !plan.valid {
				continue
			}
			inc := refIncoming(gi, gk)
			incoming[k] = inc
			checkRuns(t, fmt.Sprintf("plan(%d ← %d)", i, k), plan.incoming)
			if got := plan.incoming.pairs(); !slices.Equal(got, inc) {
				t.Fatalf("plan(%d ← %d).incoming = %v, pair form %v", i, k, got, inc)
			}
			// The next update from k with every dependency applied is
			// deliverable; one dependency short, it is not.
			T[plan.ekiSend] = τ[plan.ekiRecv] + 1
			inc.MergeInto(τ, T)
			if !s.Deliverable(ri, τ, rk, T) || !refDeliverable(s, ri, τ, rk, T) {
				t.Fatalf("Space.Deliverable(%d ← %d) refuses a gated, dominating update", i, k)
			}
			if len(inc) > 0 {
				p := inc[rng.Intn(len(inc))]
				if T[p.b] > 0 {
					τ[p.a] = T[p.b] - 1
					if got, want := s.Deliverable(ri, τ, rk, T), refDeliverable(s, ri, τ, rk, T); got || want {
						t.Fatalf("Space.Deliverable(%d ← %d) = %v, pair form %v, one dependency short", i, k, got, want)
					}
				}
			}
		}
		// RecheckOnApply(i, k) is k, then every other valid sender m whose
		// incoming pairs read e_{ki}'s receiver position.
		for k := 0; k < n; k++ {
			if k == i || !s.plans[i][k].valid {
				continue
			}
			want := []sharegraph.ReplicaID{sharegraph.ReplicaID(k)}
			for m := 0; m < n; m++ {
				if m == i || m == k || !s.plans[i][m].valid {
					continue
				}
				for _, p := range incoming[m] {
					if p.a == s.plans[i][k].ekiRecv {
						want = append(want, sharegraph.ReplicaID(m))
						break
					}
				}
			}
			got := s.RecheckOnApply(ri, sharegraph.ReplicaID(k))
			if !slices.Equal(got, want) {
				t.Fatalf("RecheckOnApply(%d, %d) = %v, pair form %v", i, k, got, want)
			}
		}
	}
}

// randomSmallVec draws counters from a small range, so that ties and
// dominance happen often.
func randomSmallVec(rng *rand.Rand, n int) Vec {
	v := make(Vec, n)
	for p := range v {
		v[p] = uint64(rng.Intn(4))
	}
	return v
}

// refEncodeTo is the codec's one-PutUvarint-per-element encoder.
func refEncodeTo(dst []byte, v Vec) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(v)))
	dst = append(dst, buf[:n]...)
	for _, x := range v {
		n = binary.PutUvarint(buf[:], x)
		dst = append(dst, buf[:n]...)
	}
	return dst
}

// refDecodeInto is the codec's one-Uvarint-per-element decoder.
func refDecodeInto(dst Vec, data []byte) (Vec, error) {
	ln, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("timestamp: corrupt length prefix")
	}
	if ln > uint64(len(data)-n) {
		return nil, fmt.Errorf("timestamp: implausible length %d for %d payload bytes", ln, len(data)-n)
	}
	data = data[n:]
	var out Vec
	if uint64(cap(dst)) >= ln {
		out = dst[:ln]
	} else {
		out = make(Vec, ln)
	}
	for i := range out {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("timestamp: corrupt element %d", i)
		}
		out[i] = x
		data = data[n:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("timestamp: %d trailing bytes", len(data))
	}
	return out, nil
}
