package timestamp

// FuzzDecode drives the wire-format parser with arbitrary bytes: it must
// never panic, and must give the one-Uvarint-per-element reference's
// verdict, vector and error text. Whenever it accepts an input, re-encoding
// the parsed vector must match the reference encoder byte for byte and
// decode to the same vector (varints are not canonical, so the input bytes
// themselves may differ). DecodeInto with a dirty reused buffer must agree
// with the allocating path on both the verdict and the value.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/sharegraph"
)

func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(Encode(Vec{}))
	f.Add(Encode(Vec{0, 1, 2, 3}))
	f.Add(Encode(Vec{1 << 40, 7, 1<<64 - 1}))
	f.Add([]byte{0xff})                   // truncated length varint
	f.Add([]byte{0x05, 0x01})             // length overruns data
	f.Add([]byte{0x01, 0x80})             // truncated element varint
	f.Add([]byte{0x01, 0x01, 0x01})       // trailing bytes
	f.Add([]byte{0x80, 0x01, 0x01, 0x01}) // non-minimal length varint
	// Adversarial-length corpus: declared counts that overrun what the
	// payload can hold (the decoder must reject them before allocating)
	// and frames truncated mid-stream.
	f.Add(append([]byte{0x80, 0x01}, make([]byte, 126)...))                   // 128 declared, 126 payload bytes
	f.Add(append([]byte{0x80, 0x01}, bytes.Repeat([]byte{0x01}, 128)...))     // exactly fits
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // 2^63 declared, empty payload
	f.Add(Encode(Vec{1 << 40, 7, 9, 1<<64 - 1})[:5])                          // truncated mid-element
	// One- and multi-byte elements interleaved, the last one multi-byte;
	// and a non-minimal element.
	f.Add(refEncodeTo(nil, Vec{5, 200, 0, 127, 128, 1 << 14, 3, 1 << 20, 99, 300}))
	f.Add([]byte{0x01, 0x80, 0x00})
	// The two-byte path's edges: a two-byte last element, a continuation
	// byte as the final byte, non-minimal 0x80 0x00 mid-vector, the largest
	// two-byte value, and a three-byte element between two-byte ones.
	f.Add(refEncodeTo(nil, Vec{1, 200}))
	f.Add([]byte{0x02, 0x01, 0x80})
	f.Add([]byte{0x03, 0x05, 0x80, 0x00, 0x07})
	f.Add([]byte{0x01, 0xff, 0x7f})
	f.Add(refEncodeTo(nil, Vec{300, 1 << 14, 16383}))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		rv, rerr := refDecodeInto(nil, data)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("Decode err=%v but reference err=%v", err, rerr)
		}
		dirty := make(Vec, 3, 64)
		dirty[0], dirty[1], dirty[2] = 99, 98, 97
		v2, err2 := DecodeInto(dirty, data)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("Decode err=%v but DecodeInto err=%v", err, err2)
		}
		if err != nil {
			return
		}
		if !v.Equal(v2) || !v.Equal(rv) {
			t.Fatalf("Decode = %v, DecodeInto = %v, reference = %v", v, v2, rv)
		}
		re := Encode(v)
		if want := refEncodeTo(nil, v); !bytes.Equal(re, want) {
			t.Fatalf("Encode(%v) = %x, reference %x", v, re, want)
		}
		if len(re) != EncodedSize(v) {
			t.Fatalf("EncodedSize = %d, Encode produced %d bytes", EncodedSize(v), len(re))
		}
		back, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of %x failed: %v", re, err)
		}
		if !back.Equal(v) {
			t.Fatalf("round trip %v → %x → %v", v, re, back)
		}
		// Canonical inputs round-trip bit-for-bit.
		if bytes.Equal(re, data) {
			return
		}
	})
}

// TestDecodeClampsDeclaredLength pins the hardened bound: the declared
// element count is clamped against the bytes remaining AFTER the length
// prefix, so a count the payload cannot possibly hold is rejected before
// any allocation (previously a multi-byte prefix let counts up to the
// whole input length through to a doomed-but-allocating parse).
func TestDecodeClampsDeclaredLength(t *testing.T) {
	cases := [][]byte{
		append([]byte{0x80, 0x01}, make([]byte, 126)...), // 128 declared, 126 present
		{0x03, 0x01, 0x01}, // 3 declared, 2 present
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // 2^63 declared
	}
	for _, data := range cases {
		if v, err := Decode(data); err == nil {
			t.Errorf("Decode(%x) accepted as %v", data, v)
		}
	}
	// The bound is exact: a count that just fits still decodes.
	ok := append([]byte{0x80, 0x01}, bytes.Repeat([]byte{0x01}, 128)...)
	v, err := Decode(ok)
	if err != nil || len(v) != 128 {
		t.Fatalf("Decode(128 ones) = %d elems, %v", len(v), err)
	}
}

// FuzzAlignment pins the run form to the pair-form reference on graphs
// the fuzzer carves: drop's bits remove edges from every replica's exact
// or truncated timestamp graph (a set bit drops the edge, bits past the
// end keep it) and then pick two more subsets of all directed share
// edges; seed draws the vectors. Align, Keep, MergeInto, Dominates and
// every Space operation must agree with the reference on all of them.
func FuzzAlignment(f *testing.F) {
	type base struct {
		g      *sharegraph.Graph
		graphs []*sharegraph.TSGraph
	}
	var bases []base
	for _, g := range []*sharegraph.Graph{sharegraph.Fig5Example(), sharegraph.Ring(6), sharegraph.RandomK(10, 24, 3, 7)} {
		for _, maxLen := range []int{0, 3} {
			bases = append(bases, base{g, sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{MaxLen: maxLen})})
		}
	}
	f.Add(uint8(0), []byte{}, int64(1))
	f.Add(uint8(2), []byte{0x01, 0x80, 0xff, 0x10}, int64(2))
	f.Add(uint8(4), bytes.Repeat([]byte{0x55}, 64), int64(3))
	f.Add(uint8(5), bytes.Repeat([]byte{0x00, 0x00, 0x00, 0xf0}, 40), int64(4))
	f.Fuzz(func(t *testing.T, pick uint8, drop []byte, seed int64) {
		b := bases[int(pick)%len(bases)]
		bit := 0
		kept := func(edges []sharegraph.Edge) []sharegraph.Edge {
			var out []sharegraph.Edge
			for _, e := range edges {
				if bit/8 >= len(drop) || drop[bit/8]>>(bit%8)&1 == 0 {
					out = append(out, e)
				}
				bit++
			}
			return out
		}
		var graphs []*sharegraph.TSGraph
		for _, tg := range b.graphs {
			graphs = append(graphs, sharegraph.NewTSGraphFromEdges(tg.Owner, kept(tg.Edges())))
		}
		space, err := NewSpace(b.g, graphs)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		checkSpace(t, rng, space)

		var all []sharegraph.Edge
		for i := 0; i < b.g.NumReplicas(); i++ {
			for _, j := range b.g.Neighbors(sharegraph.ReplicaID(i)) {
				all = append(all, sharegraph.Edge{From: sharegraph.ReplicaID(i), To: j})
			}
		}
		graphs = append(graphs, sharegraph.NewTSGraphFromEdges(0, kept(all)), sharegraph.NewTSGraphFromEdges(1, kept(all)))
		for _, gi := range graphs {
			for _, gk := range graphs {
				checkAlignment(t, rng, gi, gk)
			}
		}
	})
}
