package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sharegraph"
)

// readOneFrame pushes an encoded frame through the real reader path
// (length prefix + body) and returns the decoded kind and payload.
func readOneFrame(t *testing.T, frame []byte) (Kind, []byte) {
	t.Helper()
	var buf []byte
	body, err := ReadFrame(bytes.NewReader(frame), &buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	kind, payload, err := DecodeBody(body)
	if err != nil {
		t.Fatalf("DecodeBody: %v", err)
	}
	return kind, payload
}

func TestHelloRoundTrip(t *testing.T) {
	for _, id := range []int{0, 1, 63, ClientID, -7} {
		kind, payload := readOneFrame(t, AppendHello(nil, id))
		if kind != KindHello {
			t.Fatalf("kind = %v, want hello", kind)
		}
		got, err := DecodeHello(payload)
		if err != nil || got != id {
			t.Fatalf("DecodeHello = %d, %v; want %d", got, err, id)
		}
	}
}

// TestUpdateRoundTrip is the codec property test for the node→node kind:
// random envelopes — including empty Meta, empty register names and the
// MetaOnly flag — survive encode → frame read → decode unchanged.
func TestUpdateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	regs := []sharegraph.Register{"", "a", "x0", "some-long-register-name"}
	for i := 0; i < 500; i++ {
		want := core.Envelope{
			From:     sharegraph.ReplicaID(rng.Intn(64)),
			To:       sharegraph.ReplicaID(rng.Intn(64)),
			Reg:      regs[rng.Intn(len(regs))],
			Val:      core.Value(rng.Int63n(1<<40) - 1<<39),
			MetaOnly: rng.Intn(2) == 0,
		}
		if n := rng.Intn(64); n > 0 {
			want.Meta = make([]byte, n)
			rng.Read(want.Meta)
		}
		kind, payload := readOneFrame(t, AppendUpdate(nil, want))
		if kind != KindUpdate {
			t.Fatalf("kind = %v, want update", kind)
		}
		got, err := DecodeUpdate(payload, nil)
		if err != nil {
			t.Fatalf("DecodeUpdate: %v", err)
		}
		if len(got.Meta) == 0 {
			got.Meta = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestUpdateInterning(t *testing.T) {
	intern := map[string]sharegraph.Register{"a": "a"}
	env := core.Envelope{From: 1, To: 2, Reg: "a", Val: 9}
	_, payload := readOneFrame(t, AppendUpdate(nil, env))
	got, err := DecodeUpdate(payload, intern)
	if err != nil {
		t.Fatalf("DecodeUpdate: %v", err)
	}
	if got.Reg != "a" {
		t.Fatalf("Reg = %q, want a", got.Reg)
	}
	// Unknown names still decode, via a fresh string.
	env.Reg = "zz"
	_, payload = readOneFrame(t, AppendUpdate(nil, env))
	if got, err = DecodeUpdate(payload, intern); err != nil || got.Reg != "zz" {
		t.Fatalf("DecodeUpdate unknown reg = %q, %v", got.Reg, err)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	kind, payload := readOneFrame(t, AppendWrite(nil, "reg-7", -42))
	if kind != KindWrite {
		t.Fatalf("kind = %v, want write", kind)
	}
	reg, val, err := DecodeWrite(payload)
	if err != nil || reg != "reg-7" || val != -42 {
		t.Fatalf("DecodeWrite = %q, %d, %v", reg, val, err)
	}
}

func TestStatusRoundTrip(t *testing.T) {
	kind, payload := readOneFrame(t, AppendStatusReq(nil))
	if kind != KindStatus {
		t.Fatalf("kind = %v, want status", kind)
	}
	if _, isResp, err := DecodeStatus(payload); err != nil || isResp {
		t.Fatalf("request decoded as response (%v)", err)
	}
	want := Status{Applied: 3, Pending: 1, SentUpd: 10, RecvUpd: 9, QueuedOut: 2}
	_, payload = readOneFrame(t, AppendStatus(nil, want))
	got, isResp, err := DecodeStatus(payload)
	if err != nil || !isResp || got != want {
		t.Fatalf("DecodeStatus = %+v, %v, %v; want %+v", got, isResp, err, want)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	kind, payload := readOneFrame(t, AppendSnapshotReq(nil))
	if kind != KindSnapshot {
		t.Fatalf("kind = %v, want snapshot", kind)
	}
	if _, isResp, err := DecodeSnapshot(payload); err != nil || isResp {
		t.Fatalf("request decoded as response (%v)", err)
	}
	regs := []sharegraph.Register{"a", "b", "c"}
	vals := []core.Value{1, -2, 1 << 33}
	_, payload = readOneFrame(t, AppendSnapshot(nil, regs, vals))
	got, isResp, err := DecodeSnapshot(payload)
	if err != nil || !isResp {
		t.Fatalf("DecodeSnapshot: %v, %v", isResp, err)
	}
	want := map[sharegraph.Register]core.Value{"a": 1, "b": -2, "c": 1 << 33}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	// The empty snapshot must still be a response, not a request: it
	// carries its zero entry count.
	_, payload = readOneFrame(t, AppendSnapshot(nil, nil, nil))
	if got, isResp, err = DecodeSnapshot(payload); err != nil || !isResp || len(got) != 0 {
		t.Fatalf("empty snapshot = %v, %v, %v", got, isResp, err)
	}
}

func TestShutdownRoundTrip(t *testing.T) {
	kind, payload := readOneFrame(t, AppendShutdown(nil))
	if kind != KindShutdown || len(payload) != 0 {
		t.Fatalf("kind = %v payload = %d bytes", kind, len(payload))
	}
}

// TestDecodeRejectsAdversarialLengths is the satellite hardening check:
// corrupt declared lengths must surface as errors before any allocation
// or slicing, never as panics.
func TestDecodeRejectsAdversarialLengths(t *testing.T) {
	t.Run("oversized register length", func(t *testing.T) {
		frame := AppendUpdate(nil, core.Envelope{From: 1, To: 2, Reg: "abc", Val: 5})
		_, payload, err := DecodeBody(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		// The register length prefix sits after from, to, flags. Blow it up.
		corrupted := append([]byte(nil), payload...)
		corrupted[3] = 0xFF // varint-encodes a length far past the payload
		corrupted[4] = 0xFF
		corrupted[5] = 0x7F
		if _, err := DecodeUpdate(corrupted, nil); !errors.Is(err, ErrOversized) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("corrupt register length: err = %v", err)
		}
	})

	t.Run("truncated frames", func(t *testing.T) {
		frame := AppendUpdate(nil, core.Envelope{From: 1, To: 2, Reg: "abc", Val: 5, Meta: []byte{1, 2, 3}})
		for cut := 4; cut < len(frame); cut++ {
			body := frame[4:cut]
			kind, payload, err := DecodeBody(body)
			if err != nil {
				continue // header itself truncated: also a rejection
			}
			if kind != KindUpdate {
				t.Fatalf("cut %d: kind %v", cut, kind)
			}
			if _, err := DecodeUpdate(payload, nil); err == nil {
				t.Fatalf("cut %d: truncated update decoded cleanly", cut)
			}
		}
	})

	t.Run("bad magic and version", func(t *testing.T) {
		frame := AppendShutdown(nil)
		body := append([]byte(nil), frame[4:]...)
		body[0] ^= 0xFF
		if _, _, err := DecodeBody(body); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("bad magic: err = %v", err)
		}
		body[0] ^= 0xFF
		body[2] = Version + 1
		if _, _, err := DecodeBody(body); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("bad version: err = %v", err)
		}
	})

	t.Run("frame length beyond MaxFrameSize", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
		var buf []byte
		if _, err := ReadFrame(bytes.NewReader(hdr[:]), &buf); !errors.Is(err, ErrFrameSize) {
			t.Fatalf("oversized frame: err = %v", err)
		}
		if buf != nil {
			t.Fatalf("reader allocated %d bytes for a rejected frame", cap(buf))
		}
	})

	t.Run("frame length beyond stream", func(t *testing.T) {
		var hdr [6]byte
		binary.BigEndian.PutUint32(hdr[:], 100) // declares 100, supplies 2
		var buf []byte
		if _, err := ReadFrame(bytes.NewReader(hdr[:]), &buf); !errors.Is(err, ErrTruncated) {
			t.Fatalf("short body: err = %v", err)
		}
	})

	t.Run("snapshot entry count clamp", func(t *testing.T) {
		frame := AppendSnapshotReq(nil)
		body := append([]byte(nil), frame[4:]...)
		// A payload that declares 2^40 entries in a handful of bytes.
		body = appendUvarint(body, 1<<40)
		body = append(body, 0, 0)
		if _, _, err := DecodeSnapshot(body[headerSize:]); !errors.Is(err, ErrOversized) {
			t.Fatalf("entry-count bomb: err = %v", err)
		}
	})

	t.Run("trailing bytes rejected", func(t *testing.T) {
		frame := AppendHello(nil, 3)
		payload := append(append([]byte(nil), frame[4+headerSize:]...), 0x00)
		if _, err := DecodeHello(payload); err == nil {
			t.Fatal("trailing byte decoded cleanly")
		}
	})
}

// TestDecodeUpdateAllocs pins the receive path's decode at zero
// allocations when the register is interned: the cursor builds error
// text only when a field fails.
func TestDecodeUpdateAllocs(t *testing.T) {
	frame := AppendUpdate(nil, core.Envelope{From: 1, To: 2, Reg: "ring1", Val: 9, Meta: make([]byte, 21)})
	_, payload, err := DecodeBody(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	intern := map[string]sharegraph.Register{"ring1": "ring1"}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := DecodeUpdate(payload, intern); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeUpdate allocates %.1f objects per call, want 0", allocs)
	}
}

// TestReadFrameCleanEOF distinguishes connection shutdown at a frame
// boundary (io.EOF) from truncation mid-frame (ErrTruncated).
func TestReadFrameCleanEOF(t *testing.T) {
	frame := AppendHello(nil, 1)
	r := bytes.NewReader(frame)
	var buf []byte
	if _, err := ReadFrame(r, &buf); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if _, err := ReadFrame(r, &buf); err != io.EOF {
		t.Fatalf("at boundary: err = %v, want io.EOF", err)
	}
	r = bytes.NewReader(frame[:2]) // mid-prefix
	if _, err := ReadFrame(r, &buf); !errors.Is(err, ErrTruncated) {
		t.Fatalf("mid-prefix: err = %v, want truncated", err)
	}
}

// FuzzWireDecode drives every decoder with raw bytes: the input is read
// as a frame stream and each successfully framed body is pushed through
// every kind-specific decoder. Nothing may panic, and no declared length
// may drive a huge allocation (the fuzz engine's memory limit enforces
// the latter).
func FuzzWireDecode(f *testing.F) {
	f.Add(AppendHello(nil, 3))
	f.Add(AppendUpdate(nil, core.Envelope{From: 1, To: 2, Reg: "ab", Val: 7, Meta: []byte{0x08, 0x01}}))
	f.Add(AppendWrite(nil, "a", 1))
	f.Add(AppendStatusReq(nil))
	f.Add(AppendStatus(nil, Status{Applied: 1, SentUpd: 2, RecvUpd: 2}))
	f.Add(AppendSnapshotReq(nil))
	f.Add(AppendSnapshot(nil, []sharegraph.Register{"a"}, []core.Value{3}))
	f.Add(AppendShutdown(nil))
	// Adversarial seeds: truncated mid-payload, oversized declared body,
	// oversized inner length, wrong magic.
	f.Add(AppendUpdate(nil, core.Envelope{Reg: "abc", Meta: []byte{1, 2, 3}})[:9])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, magic0, magic1, Version, byte(KindUpdate)})
	f.Add([]byte{0, 0, 0, 6, magic0, magic1, Version, byte(KindWrite), 0xFF, 0x7F})
	f.Add([]byte{0, 0, 0, 4, 'X', 'Y', Version, byte(KindHello)})
	f.Add([]byte{0, 0, 0, 5, magic0, magic1, Version, 7, 0}) // kind 7 is unassigned

	intern := map[string]sharegraph.Register{"ab": "ab"}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			body, err := ReadFrame(r, &buf)
			if err != nil {
				return
			}
			kind, payload, err := DecodeBody(body)
			if err != nil {
				return
			}
			switch kind {
			case KindHello:
				DecodeHello(payload)
			case KindUpdate:
				DecodeUpdate(payload, intern)
			case KindWrite:
				DecodeWrite(payload)
			case KindStatus:
				DecodeStatus(payload)
			case KindSnapshot:
				DecodeSnapshot(payload)
			}
		}
	})
}
