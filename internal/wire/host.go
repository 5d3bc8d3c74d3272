package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sharegraph"
)

// Host is one deployed replica without I/O: the protocol state machine
// from internal/core plus what the deployment adds around it — the
// link-identity and routing checks, the durable mutation log
// (log-before-apply), update-ID issue and the sent/recv/applied counters
// the client's quiesce protocol sums. Frames go in one at a time through
// Step; what the replica emits goes to the caller's sink. A Host has no
// goroutines, sockets or locks: the caller serializes every call except
// Received, whose counter is atomic like the ones Status reads. Node is
// a Host behind TCP readers and a Transport, and Replay is the same Step
// path over the log's frames.
type Host struct {
	self  sharegraph.ReplicaID
	g     *sharegraph.Graph
	node  core.Node
	stock map[string]sharegraph.Register // interned register names

	log    io.Writer // durable mutation log, nil when off
	logErr error     // sticky: the first failed append
	nextID causality.UpdateID
	emit   countSink
	reg    *obs.Registry // nil unless the node armed metrics

	sent, recv, applied atomic.Uint64
}

// NewHost wraps node, replica self of g. log, when non-nil, receives
// every accepted mutation frame before it is applied.
func NewHost(g *sharegraph.Graph, self sharegraph.ReplicaID, node core.Node, log io.Writer) *Host {
	h := &Host{self: self, g: g, node: node, stock: make(map[string]sharegraph.Register), log: log}
	for _, x := range g.Registers() {
		h.stock[string(x)] = x
	}
	h.emit.h = h
	return h
}

// countSink counts what the node emits as sent and passes it on.
type countSink struct {
	h   *Host
	out core.Sink
}

func (s *countSink) Emit(env core.Envelope) {
	s.h.sent.Add(1)
	s.out.Emit(env)
}

// logLink is the link Replay steps frames from: their identity was
// checked before they were logged.
const logLink = -2

// Hello checks the first frame of a link and returns the link's
// identity: a replica of the cluster, or ClientID.
func (h *Host) Hello(frame []byte) (int, error) {
	kind, payload, err := decodeFrame(frame)
	if err != nil {
		return 0, err
	}
	if kind != KindHello {
		return 0, fmt.Errorf("conn opened with %v, want hello", kind)
	}
	id, err := DecodeHello(payload)
	if err == nil && id != ClientID && (id < 0 || id >= h.g.NumReplicas()) {
		err = fmt.Errorf("id %d is neither a replica in [0,%d) nor the client", id, h.g.NumReplicas())
	}
	if err != nil {
		return 0, fmt.Errorf("bad hello: %w", err)
	}
	return id, nil
}

// decodeFrame splits a whole frame, length prefix included, into kind
// and payload.
func decodeFrame(frame []byte) (Kind, []byte, error) {
	if len(frame) < 4 || int(binary.BigEndian.Uint32(frame)) != len(frame)-4 {
		return KindInvalid, nil, fmt.Errorf("%w: length prefix disagrees with a %d-byte frame", ErrTruncated, len(frame))
	}
	return DecodeBody(frame[4:])
}

// Step takes one whole frame (length prefix included) that arrived on the
// link whose Hello identity is from. An Update must come from that
// replica and be addressed to this one; a Write is a client write. A
// mutation is appended to the log verbatim and then applied, emitting
// into out; a frame the host rejects, or cannot log, changes nothing.
// Status, Snapshot and Shutdown requests are checked and returned for the
// caller to answer. The Applied slice is node-owned scratch, valid until
// the next Step.
//
// Receipt of an Update is not counted here: the caller calls Received
// once whatever the frame emitted has left it, so the cluster's sent
// total leads its received total while any update is in process.
func (h *Host) Step(from int, frame []byte, out core.Sink) (Kind, []core.Applied, error) {
	kind, payload, err := decodeFrame(frame)
	if err != nil {
		return kind, nil, err
	}
	switch kind {
	case KindUpdate:
		env, err := DecodeUpdate(payload, h.stock)
		if err != nil {
			return kind, nil, err
		}
		if env.To != h.self {
			return kind, nil, fmt.Errorf("misrouted update for replica %d", env.To)
		}
		if from == ClientID || from != logLink && int(env.From) != from {
			return kind, nil, fmt.Errorf("update claims sender %d", env.From)
		}
		if err := h.append(frame); err != nil {
			return kind, nil, err
		}
		h.emit.out = out
		applied := h.node.HandleMessage(env, &h.emit)
		h.applied.Add(uint64(len(applied)))
		if h.reg != nil {
			na := len(applied)
			if env.MetaOnly {
				na = obs.MetaOnly
			}
			h.reg.Deliver(int(env.From), int(h.self), na)
		}
		return kind, applied, nil
	case KindWrite:
		reg, val, err := DecodeWrite(payload)
		if err != nil {
			return kind, nil, err
		}
		if x, ok := h.stock[string(reg)]; ok {
			reg = x
		}
		if err := h.append(frame); err != nil {
			return kind, nil, err
		}
		// IDs are process-local (the oracle does not cross process
		// boundaries). A write the node refuses still consumes one, in the
		// log and on replay alike.
		id := h.nextID
		h.nextID++
		h.emit.out = out
		return kind, nil, h.node.HandleWrite(reg, val, id, &h.emit)
	case KindStatus, KindSnapshot:
		if len(payload) != 0 { // a request is empty
			return kind, nil, fmt.Errorf("unexpected %v response", kind)
		}
	case KindShutdown:
	case KindHello:
		return kind, nil, fmt.Errorf("duplicate hello")
	default:
		return kind, nil, fmt.Errorf("unknown kind %v", kind)
	}
	return kind, nil, nil
}

// append writes one mutation frame to the log. The first failure is
// sticky: after a torn append, a later one would land behind bytes
// replay cannot parse, so the host refuses every mutation from then on.
func (h *Host) append(frame []byte) error {
	if h.log != nil && h.logErr == nil {
		_, h.logErr = h.log.Write(frame)
	}
	if h.logErr != nil {
		return fmt.Errorf("log append: %w", h.logErr)
	}
	return nil
}

// Received counts one Update as received. Safe without the caller's lock.
func (h *Host) Received() { h.recv.Add(1) }

// Replay steps every complete frame of a mutation log through Step,
// appending nothing, and returns the offset just past the last frame it
// applied. Emissions are counted as sent, not delivered: the original run
// handed them on already, and emission is deterministic given the same
// frames, so every counter returns to its value when the frame was
// logged. Replay stops at the first torn, corrupt or non-mutation frame
// and reports why; the log's prefix up to the offset is consistent.
func (h *Host) Replay(r io.Reader) (int64, error) {
	log := h.log
	h.log = nil
	defer func() { h.log = log }()
	br := bufio.NewReaderSize(r, 64<<10)
	var buf []byte
	var good int64
	for {
		frame, err := readFrame(br, &buf)
		if err == io.EOF {
			return good, nil
		}
		if err != nil {
			return good, err
		}
		kind, _, err := h.Step(logLink, frame, core.DiscardSink{})
		var refused *core.NotStoredError
		if err != nil && !errors.As(err, &refused) {
			return good, err
		}
		if kind == KindUpdate {
			h.Received()
		} else if kind != KindWrite {
			return good, fmt.Errorf("unexpected %v frame", kind)
		}
		good += int64(len(frame))
	}
}

// Status returns the replica's counters; QueuedOut is the transport's to
// fill.
func (h *Host) Status() Status {
	return Status{
		Applied: h.applied.Load(),
		Pending: uint64(h.node.PendingCount()),
		SentUpd: h.sent.Load(),
		RecvUpd: h.recv.Load(),
	}
}

// Snapshot returns the replica's register contents, sorted by register
// name (Sorted()'s order) so the encoding is byte-stable.
func (h *Host) Snapshot() ([]sharegraph.Register, []core.Value) {
	regs := h.g.Stores(h.self).Sorted()
	vals := make([]core.Value, 0, len(regs))
	kept := regs[:0]
	for _, x := range regs {
		if v, ok := h.node.Read(x); ok {
			kept = append(kept, x)
			vals = append(vals, v)
		}
	}
	return kept, vals
}
