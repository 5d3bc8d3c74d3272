// Package wire is the network half of the paper's system model: a
// versioned, length-prefixed envelope codec and a TCP transport that
// implement, across process boundaries, the same send/forward contract
// the in-process worker-pool engine (internal/runtime.Engine) provides
// over channels. A replica becomes a process (cmd/prcc-node), clients
// become processes (cmd/prcc-client), and the protocol state machines in
// internal/core run unchanged on either side of the seam.
//
// # Frame format
//
// Every message on a connection is one frame:
//
//	u32 big-endian body length | magic 0xC5 0xCC | version | kind | payload
//
// The payload is kind-specific and varint-encoded throughout (timestamps
// ride as the exact bytes timestamp.EncodeTo produces, so the wire
// metadata size is the quantity the paper's experiments measure). All
// encoders are append-style over caller-supplied buffers — hot paths feed
// them recycled transport.BytePool buffers, so encoding a steady-state
// update performs no allocation.
//
// # Decoder hardening
//
// Length fields are adversarial input: every declared length (frame body,
// register name, metadata) is clamped against the bytes actually present
// before any allocation or slicing, so a corrupt or malicious length
// prefix cannot drive a huge allocation or a panic. ReadFrame
// additionally bounds the body length by MaxFrameSize before reading.
// FuzzWireDecode drives these paths with truncated and oversized frames.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sharegraph"
)

// Frame framing constants.
const (
	magic0  = 0xC5
	magic1  = 0xCC
	Version = 1

	// headerSize is the fixed per-frame overhead after the length prefix:
	// magic (2) + version (1) + kind (1).
	headerSize = 4

	// MaxFrameSize bounds one frame body. A peer declaring more is
	// corrupt or malicious; the reader rejects the frame before
	// allocating. Generously above any real envelope: a 64-replica dense
	// graph's timestamp encodes in well under 4 KiB.
	MaxFrameSize = 1 << 20
)

// Kind discriminates frame payloads.
type Kind byte

// Frame kinds. Update is the only node→node kind; the rest implement the
// client protocol (handshake, client writes, quiesce polling, snapshot
// transfer, orderly shutdown).
const (
	KindInvalid  Kind = 0
	KindHello    Kind = 1 // sender identity: replica ID, or ClientID
	KindUpdate   Kind = 2 // one core.Envelope
	KindWrite    Kind = 3 // client write: register + value
	KindStatus   Kind = 4 // status request (empty) / response (counters)
	KindSnapshot Kind = 5 // snapshot request (empty) / response (registers)
	KindShutdown Kind = 6 // drain and exit
)

var kindNames = [...]string{
	KindHello: "hello", KindUpdate: "update", KindWrite: "write",
	KindStatus: "status", KindSnapshot: "snapshot", KindShutdown: "shutdown",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// ClientID is the Hello identity of a connection that is a client rather
// than a peer replica.
const ClientID = -1

// Codec errors. Decoders wrap these with context; matching uses
// errors.Is.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrTruncated  = errors.New("wire: truncated frame")
	ErrOversized  = errors.New("wire: declared length exceeds frame")
	ErrFrameSize  = errors.New("wire: frame exceeds MaxFrameSize")
)

// beginFrame appends the length placeholder and header for one frame and
// returns the extended buffer plus the offset of the length prefix.
func beginFrame(dst []byte, kind Kind) ([]byte, int) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, magic0, magic1, Version, byte(kind))
	return dst, start
}

// endFrame patches the length prefix once the payload is complete.
func endFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

func appendUvarint(dst []byte, x uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	return append(dst, buf[:n]...)
}

func appendVarint(dst []byte, x int64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], x)
	return append(dst, buf[:n]...)
}

// appendBytes appends a length-prefixed byte string.
func appendBytes(dst []byte, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendString appends a length-prefixed string without converting it to
// a byte slice first (the conversion would allocate on the hot path).
func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendHello appends a Hello frame identifying the sender: a replica ID,
// or ClientID for client connections.
func AppendHello(dst []byte, id int) []byte {
	dst, start := beginFrame(dst, KindHello)
	dst = appendVarint(dst, int64(id))
	return endFrame(dst, start)
}

// envelope flags.
const flagMetaOnly = 1 << 0

// appendEnvelope appends one envelope's fields — sender, destination,
// flags, register, value, metadata — the payload of an Update frame.
func appendEnvelope(dst []byte, env core.Envelope) []byte {
	dst = appendVarint(dst, int64(env.From))
	dst = appendVarint(dst, int64(env.To))
	var flags byte
	if env.MetaOnly {
		flags |= flagMetaOnly
	}
	dst = append(dst, flags)
	dst = appendString(dst, string(env.Reg))
	dst = appendVarint(dst, int64(env.Val))
	return appendBytes(dst, env.Meta)
}

// AppendUpdate appends an Update frame carrying one core.Envelope: sender,
// destination, flags, register, value, and the timestamp.EncodeTo metadata
// bytes, all length-prefixed where variable. Append-style: feeding it a
// recycled buffer encodes without allocating.
func AppendUpdate(dst []byte, env core.Envelope) []byte {
	dst, start := beginFrame(dst, KindUpdate)
	return endFrame(appendEnvelope(dst, env), start)
}

// AppendWrite appends a client Write frame.
func AppendWrite(dst []byte, reg sharegraph.Register, val core.Value) []byte {
	dst, start := beginFrame(dst, KindWrite)
	dst = appendString(dst, string(reg))
	dst = appendVarint(dst, int64(val))
	return endFrame(dst, start)
}

// Status is one node's transport counters — the quiesce-detection state
// the client polls. All counters are monotone over a node's lifetime.
type Status struct {
	Applied   uint64 // updates applied by the protocol state machine
	Pending   uint64 // updates buffered but not yet deliverable
	SentUpd   uint64 // update frames enqueued toward peers
	RecvUpd   uint64 // update frames ingested from peers
	QueuedOut uint64 // frames enqueued but not yet written to a socket
}

// AppendStatusReq appends an empty Status request frame.
func AppendStatusReq(dst []byte) []byte { return endFrame(beginFrame(dst, KindStatus)) }

// AppendStatus appends a Status response frame.
func AppendStatus(dst []byte, s Status) []byte {
	dst, start := beginFrame(dst, KindStatus)
	dst = appendUvarint(dst, s.Applied)
	dst = appendUvarint(dst, s.Pending)
	dst = appendUvarint(dst, s.SentUpd)
	dst = appendUvarint(dst, s.RecvUpd)
	dst = appendUvarint(dst, s.QueuedOut)
	return endFrame(dst, start)
}

// AppendSnapshotReq appends an empty Snapshot request frame.
func AppendSnapshotReq(dst []byte) []byte { return endFrame(beginFrame(dst, KindSnapshot)) }

// AppendSnapshot appends a Snapshot response frame: the replica's register
// contents as (register, value) pairs in the given order. Responders pass
// registers sorted so snapshots are byte-comparable across runs.
func AppendSnapshot(dst []byte, regs []sharegraph.Register, vals []core.Value) []byte {
	dst, start := beginFrame(dst, KindSnapshot)
	dst = appendUvarint(dst, uint64(len(regs)))
	for i, r := range regs {
		dst = appendString(dst, string(r))
		dst = appendVarint(dst, int64(vals[i]))
	}
	return endFrame(dst, start)
}

// AppendShutdown appends a Shutdown frame.
func AppendShutdown(dst []byte) []byte { return endFrame(beginFrame(dst, KindShutdown)) }

// DecodeBody splits one frame body (the bytes after the length prefix)
// into kind and payload, verifying magic and version.
func DecodeBody(body []byte) (Kind, []byte, error) {
	if len(body) < headerSize {
		return KindInvalid, nil, fmt.Errorf("%w: %d-byte body", ErrTruncated, len(body))
	}
	if body[0] != magic0 || body[1] != magic1 {
		return KindInvalid, nil, fmt.Errorf("%w: %#02x %#02x", ErrBadMagic, body[0], body[1])
	}
	if body[2] != Version {
		return KindInvalid, nil, fmt.Errorf("%w: %d", ErrBadVersion, body[2])
	}
	return Kind(body[3]), body[headerSize:], nil
}

// cursor is a bounds-checked payload reader. Every read clamps against
// the remaining bytes, so corrupt declared lengths surface as errors, not
// panics or huge allocations.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	x, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.err = fmt.Errorf("%w: %s", ErrTruncated, what)
		return 0
	}
	c.b = c.b[n:]
	return x
}

// varint reads a zig-zag varint, binary.Varint's encoding.
func (c *cursor) varint(what string) int64 {
	ux := c.uvarint(what)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (c *cursor) byte(what string) byte {
	if c.err != nil {
		return 0
	}
	if len(c.b) == 0 {
		c.err = fmt.Errorf("%w: %s", ErrTruncated, what)
		return 0
	}
	x := c.b[0]
	c.b = c.b[1:]
	return x
}

// bytes reads a length-prefixed byte string, clamping the declared length
// against the remaining payload BEFORE slicing. The returned slice
// aliases the payload; callers that retain it must copy.
func (c *cursor) bytes(what string) []byte {
	if c.err != nil {
		return nil
	}
	// The length is read here, not through uvarint, so the error text is
	// built only on failure: the decode path allocates nothing.
	ln, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.err = fmt.Errorf("%w: %s length", ErrTruncated, what)
		return nil
	}
	c.b = c.b[n:]
	if ln > uint64(len(c.b)) {
		c.err = fmt.Errorf("%w: %s declares %d of %d bytes", ErrOversized, what, ln, len(c.b))
		return nil
	}
	out := c.b[:ln]
	c.b = c.b[ln:]
	return out
}

func (c *cursor) finish() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("wire: %d trailing payload bytes", len(c.b))
	}
	return nil
}

// DecodeHello parses a Hello payload.
func DecodeHello(payload []byte) (int, error) {
	c := cursor{b: payload}
	id := c.varint("hello id")
	if err := c.finish(); err != nil {
		return 0, err
	}
	return int(id), nil
}

// envelope reads one envelope's fields from the cursor — the decode
// half of appendEnvelope.
func (c *cursor) envelope(intern map[string]sharegraph.Register) core.Envelope {
	var env core.Envelope
	env.From = sharegraph.ReplicaID(c.varint("from"))
	env.To = sharegraph.ReplicaID(c.varint("to"))
	flags := c.byte("flags")
	env.MetaOnly = flags&flagMetaOnly != 0
	reg := c.bytes("register")
	env.Val = core.Value(c.varint("value"))
	env.Meta = c.bytes("metadata")
	if c.err != nil {
		return core.Envelope{}
	}
	if x, ok := intern[string(reg)]; ok {
		env.Reg = x
	} else {
		env.Reg = sharegraph.Register(reg)
	}
	return env
}

// DecodeUpdate parses an Update payload into a core.Envelope. Meta
// aliases the payload buffer — valid only until the caller reuses it;
// receivers ingest (or copy) before reading the next frame. intern, when
// non-nil, maps known register names to canonical strings so the
// steady-state receive path does not allocate per message; unknown names
// (and nil maps) fall back to a fresh string. OracleID is zero: the
// causality oracle does not cross process boundaries.
func DecodeUpdate(payload []byte, intern map[string]sharegraph.Register) (core.Envelope, error) {
	c := cursor{b: payload}
	env := c.envelope(intern)
	if err := c.finish(); err != nil {
		return core.Envelope{}, err
	}
	return env, nil
}

// DecodeWrite parses a Write payload. The register aliases the payload.
func DecodeWrite(payload []byte) (sharegraph.Register, core.Value, error) {
	c := cursor{b: payload}
	reg := c.bytes("register")
	val := core.Value(c.varint("value"))
	if err := c.finish(); err != nil {
		return "", 0, err
	}
	return sharegraph.Register(reg), val, nil
}

// DecodeStatus parses a Status payload; an empty payload is a request
// (ok = false), a populated one a response (ok = true).
func DecodeStatus(payload []byte) (Status, bool, error) {
	if len(payload) == 0 {
		return Status{}, false, nil
	}
	c := cursor{b: payload}
	var s Status
	s.Applied = c.uvarint("applied")
	s.Pending = c.uvarint("pending")
	s.SentUpd = c.uvarint("sent")
	s.RecvUpd = c.uvarint("received")
	s.QueuedOut = c.uvarint("queued")
	if err := c.finish(); err != nil {
		return Status{}, false, err
	}
	return s, true, nil
}

// DecodeSnapshot parses a Snapshot payload; an empty payload is a request
// (ok = false). The declared entry count is clamped by construction: each
// entry consumes at least two payload bytes, so a huge declared count
// fails on the first missing entry rather than pre-allocating.
func DecodeSnapshot(payload []byte) (map[sharegraph.Register]core.Value, bool, error) {
	if len(payload) == 0 {
		return nil, false, nil
	}
	c := cursor{b: payload}
	n := c.uvarint("entry count")
	if c.err == nil && n > uint64(len(c.b)) {
		return nil, false, fmt.Errorf("%w: %d entries in %d bytes", ErrOversized, n, len(c.b))
	}
	out := make(map[sharegraph.Register]core.Value, n)
	for i := uint64(0); i < n; i++ {
		reg := c.bytes("register")
		val := c.varint("value")
		if c.err != nil {
			break
		}
		out[sharegraph.Register(append([]byte(nil), reg...))] = core.Value(val)
	}
	if err := c.finish(); err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// ReadFrame reads one length-prefixed frame body from r into buf
// (growing it only when needed) and returns the body. The declared
// length is validated against MaxFrameSize before any allocation. On
// io.EOF at a frame boundary it returns io.EOF unwrapped, so clean
// connection shutdown is distinguishable from truncation mid-frame.
func ReadFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	frame, err := readFrame(r, buf)
	if err != nil {
		return nil, err
	}
	return frame[4:], nil
}

// readFrame is ReadFrame returning the whole frame, length prefix
// included — the bytes a Host steps and logs.
func readFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: length prefix: %v", ErrTruncated, err)
	}
	ln := binary.BigEndian.Uint32(hdr[:])
	if ln > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameSize, ln)
	}
	if uint32(cap(*buf)) < 4+ln {
		*buf = make([]byte, 4+ln)
	}
	frame := (*buf)[:4+ln]
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[4:]); err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrTruncated, err)
	}
	return frame, nil
}
