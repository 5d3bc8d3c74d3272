package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sharegraph"
	"repro/internal/transport"
)

// Node hosts one replica as a network server: the protocol state machine
// from internal/core behind a TCP listener, with outgoing updates routed
// through a Transport. It is the process-boundary analogue of one slot of
// sim.Cluster — the same emit contract, the same backpressure discipline,
// with the wire codec in place of in-process message structs.
//
// Inbound connections are served one reader goroutine each: peer replicas
// stream Update frames; clients stream Write frames and request Status,
// Snapshot and Shutdown. All protocol calls serialize on the node lock,
// and emitted envelopes are encoded into pooled frame buffers during
// Emit (inside the lock, satisfying the node-owned-scratch contract),
// then handed to the transport after the lock is released so
// backpressure never blocks while holding the node.
type Node struct {
	cfg   ClusterConfig
	self  sharegraph.ReplicaID
	g     *sharegraph.Graph
	node  core.Node
	stock map[string]sharegraph.Register // interned register names

	pool transport.BytePool
	tr   *Transport
	ln   net.Listener

	nodeMu sync.Mutex
	sinks  sync.Pool // *frameSink
	logF   *os.File  // durable mutation log, nil when disabled

	conns   sync.WaitGroup
	connMu  sync.Mutex
	open    map[net.Conn]struct{}
	closed  atomic.Bool
	shutReq chan struct{}
	shutOne sync.Once

	applied atomic.Uint64
	recvUpd atomic.Uint64
	sentUpd atomic.Uint64
	idSeq   atomic.Int64

	reg    *obs.Registry     // nil unless StatusAddr armed metrics
	status *obs.StatusServer // nil unless StatusAddr set

	logf func(format string, args ...any)
}

// NodeOptions configures a Node.
type NodeOptions struct {
	// Transport tunes the outgoing links.
	Transport TransportOptions
	// Logf sinks diagnostics (default log.Printf).
	Logf func(format string, args ...any)
	// LogPath, when non-empty, enables the durable mutation log: every
	// accepted mutation (client Write, delivered Update) is appended to
	// this file as its wire frame before it is applied, and an existing
	// log is replayed on startup to rebuild the replica's state and
	// counters after a crash. Replay restores SentUpd/RecvUpd exactly,
	// so the client-side quiesce protocol stays sound across a kill -9
	// and restart of a quiescent node. Updates the transport accepted
	// but had not yet delivered when the process died are not replayed
	// (the transport's queue is volatile); recovery is exact when the
	// cluster was quiescent at crash time.
	LogPath string
	// StatusAddr, when non-empty, arms the metrics registry and serves
	// /statusz and /metricsz on this address (host:port; port 0 picks a
	// free port — read it back via StatusAddrServing). When empty, no
	// registry is allocated and the per-frame cost is a single nil check.
	StatusAddr string
}

// NewNode builds replica self of the configured cluster and starts
// listening on its configured address. The protocol must be built over
// cfg.Graph() — every process derives the same graph from the same
// placement, so all timestamp spaces agree. Serve must be called to
// accept traffic.
func NewNode(cfg ClusterConfig, self int, protocol core.Protocol, opts NodeOptions) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if self < 0 || self >= len(cfg.Replicas) {
		return nil, fmt.Errorf("wire: replica id %d outside [0,%d)", self, len(cfg.Replicas))
	}
	g, err := cfg.Graph()
	if err != nil {
		return nil, err
	}
	nodes, err := protocol.NewNodes()
	if err != nil {
		return nil, fmt.Errorf("wire: build nodes: %w", err)
	}
	if len(nodes) != len(cfg.Replicas) {
		return nil, fmt.Errorf("wire: protocol built %d nodes for %d replicas", len(nodes), len(cfg.Replicas))
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	n := &Node{
		cfg:     cfg,
		self:    sharegraph.ReplicaID(self),
		g:       g,
		node:    nodes[self],
		stock:   make(map[string]sharegraph.Register),
		open:    make(map[net.Conn]struct{}),
		shutReq: make(chan struct{}),
		logf:    opts.Logf,
	}
	for _, x := range g.Registers() {
		n.stock[string(x)] = x
	}
	n.sinks.New = func() any { return &frameSink{n: n} }
	if opts.LogPath != "" {
		if err := n.openLog(opts.LogPath); err != nil {
			return nil, fmt.Errorf("wire: replica %d log: %w", self, err)
		}
	}
	n.tr = NewTransport(self, cfg.Addrs(), &n.pool, opts.Transport)
	ln, err := net.Listen("tcp", cfg.Replicas[self].Addr)
	if err != nil {
		if n.logF != nil {
			n.logF.Close()
		}
		return nil, fmt.Errorf("wire: replica %d listen: %w", self, err)
	}
	n.ln = ln
	if opts.StatusAddr != "" {
		n.reg = obs.New(len(cfg.Replicas), 0)
		st, err := obs.Serve(opts.StatusAddr, n.Metrics)
		if err != nil {
			ln.Close()
			n.tr.Close()
			if n.logF != nil {
				n.logF.Close()
			}
			return nil, fmt.Errorf("wire: replica %d status: %w", self, err)
		}
		n.status = st
	}
	return n, nil
}

// StatusAddrServing returns the bound status endpoint address, or "" when
// NodeOptions.StatusAddr was unset.
func (n *Node) StatusAddrServing() string {
	if n.status == nil {
		return ""
	}
	return n.status.Addr()
}

// Addr returns the listener's actual address (useful when the configured
// address had port 0).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// ShutdownRequested is closed when a client sends a Shutdown frame.
func (n *Node) ShutdownRequested() <-chan struct{} { return n.shutReq }

// Transport exposes the node's outgoing transport.
func (n *Node) Transport() *Transport { return n.tr }

// Pool exposes the node's frame buffer pool (leak checks assert its
// balance returns to zero after a drained run).
func (n *Node) Pool() *transport.BytePool { return &n.pool }

// Serve accepts connections until Close. It returns nil on clean
// shutdown.
func (n *Node) Serve() error {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			if n.closed.Load() {
				return nil
			}
			return fmt.Errorf("wire: replica %d accept: %w", n.self, err)
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		n.connMu.Lock()
		if n.closed.Load() {
			n.connMu.Unlock()
			conn.Close()
			continue
		}
		n.open[conn] = struct{}{}
		n.connMu.Unlock()
		n.conns.Add(1)
		go n.serveConn(conn)
	}
}

// Close stops accepting, drains the outgoing transport, closes inbound
// connections and joins their readers. The orderly sequence — quiesce
// first, then Close — is the client's job (cmd/prcc-client's -shutdown
// polls Status to quiescence before sending Shutdown frames).
func (n *Node) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	n.ln.Close()
	if n.status != nil {
		n.status.Close()
	}
	n.tr.Close()
	n.connMu.Lock()
	for c := range n.open {
		c.Close()
	}
	n.connMu.Unlock()
	n.conns.Wait()
	if n.logF != nil {
		n.nodeMu.Lock()
		n.logF.Close()
		n.logF = nil
		n.nodeMu.Unlock()
	}
}

// openLog opens (creating if missing) the durable mutation log, replays
// whatever it already holds into the freshly built protocol state, and
// positions the file for appends. The log is a sequence of ordinary wire
// frames in apply order. A torn tail — a frame cut short by a crash
// mid-append — is truncated away: log-before-apply means a torn frame
// was never applied and its emissions never left the process, so
// dropping it is the consistent choice.
func (n *Node) openLog(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	good, err := n.replayLog(f)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	n.logF = f
	return nil
}

// replaySink counts the envelopes a replayed mutation re-emits without
// sending them anywhere: the original run already handed them to the
// transport (counting each as sent), so replay only needs the count to
// restore SentUpd. Protocol emission is deterministic given the same
// mutation sequence, so the count is exact. Self-addressed emissions are
// counted too but not re-delivered — their deliveries were logged as
// their own Update frames and replay in order.
type replaySink struct{ emitted uint64 }

func (s *replaySink) Emit(core.Envelope) { s.emitted++ }

// replayLog applies every complete frame in the log and returns the
// offset just past the last complete frame. Counters are restored to
// exactly their pre-crash values: recvUpd = replayed updates, idSeq =
// replayed writes, applied accumulates from the protocol, sentUpd from
// the deterministic re-emission count.
func (n *Node) replayLog(f *os.File) (int64, error) {
	br := bufio.NewReaderSize(f, 64<<10)
	var buf []byte
	var good int64
	for {
		body, err := ReadFrame(br, &buf)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return good, nil
			}
			// Torn or corrupt tail: stop at the last complete frame. Any
			// other read error (bad magic mid-log, oversized length) also
			// lands here — replaying a prefix is always safe, and the
			// truncate that follows discards the junk.
			n.logf("wire: replica %d: log replay stops at offset %d: %v", n.self, good, err)
			return good, nil
		}
		kind, payload, err := DecodeBody(body)
		if err != nil {
			n.logf("wire: replica %d: log replay stops at offset %d: %v", n.self, good, err)
			return good, nil
		}
		s := &replaySink{}
		switch kind {
		case KindUpdate:
			env, err := DecodeUpdate(payload, n.stock)
			if err != nil {
				n.logf("wire: replica %d: log replay stops at offset %d: %v", n.self, good, err)
				return good, nil
			}
			applied := n.node.HandleMessage(env, s)
			n.applied.Add(uint64(len(applied)))
			n.recvUpd.Add(1)
		case KindWrite:
			reg, val, err := DecodeWrite(payload)
			if err != nil {
				n.logf("wire: replica %d: log replay stops at offset %d: %v", n.self, good, err)
				return good, nil
			}
			if x, ok := n.stock[string(reg)]; ok {
				reg = x
			}
			id := causality.UpdateID(n.idSeq.Add(1) - 1)
			// A write that failed validation originally fails identically
			// here; it still consumed an ID, which is why the bump precedes
			// the call on both paths.
			_ = n.node.HandleWrite(reg, val, id, s)
		default:
			n.logf("wire: replica %d: log replay stops at offset %d: unexpected %v frame", n.self, good, kind)
			return good, nil
		}
		n.sentUpd.Add(s.emitted)
		good += int64(4 + len(body))
	}
}

// logAppend writes one frame to the durable log. Called with nodeMu held
// so the log order is exactly the apply order. The write lands in the
// kernel page cache, which survives a SIGKILL of this process (crash
// recovery targets process death, not host death — no fsync).
func (n *Node) logAppend(frame []byte) {
	if n.logF == nil {
		return
	}
	if _, err := n.logF.Write(frame); err != nil {
		n.logf("wire: replica %d: log append: %v", n.self, err)
	}
}

func (n *Node) dropConn(conn net.Conn) {
	n.connMu.Lock()
	delete(n.open, conn)
	n.connMu.Unlock()
	conn.Close()
	n.conns.Done()
}

// serveConn is one inbound reader: Hello first, then frames until EOF.
// The Hello id is the link's identity: it must name a replica or the
// client, and every Update on the link must come from that replica.
func (n *Node) serveConn(conn net.Conn) {
	defer n.dropConn(conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	peerID := 0
	for first := true; ; first = false {
		body, err := ReadFrame(br, &buf)
		if err != nil {
			if !errors.Is(err, io.EOF) && !n.closed.Load() {
				n.logf("wire: replica %d: read: %v", n.self, err)
			}
			return
		}
		kind, payload, err := DecodeBody(body)
		if err != nil {
			n.logf("wire: replica %d: bad frame: %v", n.self, err)
			return
		}
		if first {
			if kind != KindHello {
				n.logf("wire: replica %d: conn opened with %v, want hello", n.self, kind)
				return
			}
			peerID, err = DecodeHello(payload)
			if err == nil && peerID != ClientID && (peerID < 0 || peerID >= len(n.cfg.Replicas)) {
				err = fmt.Errorf("id %d is neither a replica in [0,%d) nor the client", peerID, len(n.cfg.Replicas))
			}
			if err != nil {
				n.logf("wire: replica %d: bad hello: %v", n.self, err)
				return
			}
			continue
		}
		if err := n.handleFrame(conn, peerID, kind, payload); err != nil {
			n.logf("wire: replica %d: %v frame from %d: %v", n.self, kind, peerID, err)
			return
		}
	}
}

func (n *Node) handleFrame(conn net.Conn, peerID int, kind Kind, payload []byte) error {
	switch kind {
	case KindUpdate:
		env, err := DecodeUpdate(payload, n.stock)
		if err != nil {
			return err
		}
		if env.To != n.self {
			return fmt.Errorf("misrouted update for replica %d", env.To)
		}
		if int(env.From) != peerID {
			return fmt.Errorf("update claims sender %d", env.From)
		}
		// Receipt is counted only after the delivery — including the flush
		// of whatever it emitted — completes: the quiesce protocol's
		// soundness rests on sum(sent) exceeding sum(recv) while any
		// update is accepted but not yet fully processed.
		n.deliver(env)
		n.recvUpd.Add(1)
		return nil
	case KindWrite:
		reg, val, err := DecodeWrite(payload)
		if err != nil {
			return err
		}
		if x, ok := n.stock[string(reg)]; ok {
			reg = x
		}
		return n.clientWrite(reg, val)
	case KindStatus:
		if _, isResp, err := DecodeStatus(payload); err != nil {
			return err
		} else if isResp {
			return fmt.Errorf("unexpected status response")
		}
		frame := AppendStatus(n.pool.Get(), n.Status())
		_, err := conn.Write(frame)
		n.pool.Put(frame)
		return err
	case KindSnapshot:
		if _, isResp, err := DecodeSnapshot(payload); err != nil {
			return err
		} else if isResp {
			return fmt.Errorf("unexpected snapshot response")
		}
		regs, vals := n.snapshot()
		frame := AppendSnapshot(n.pool.Get(), regs, vals)
		_, err := conn.Write(frame)
		n.pool.Put(frame)
		return err
	case KindShutdown:
		n.shutOne.Do(func() { close(n.shutReq) })
		return nil
	case KindHello:
		return fmt.Errorf("duplicate hello")
	default:
		return fmt.Errorf("unknown kind %v", kind)
	}
}

// frameSink implements core.Sink by encoding each emitted envelope into a
// pooled frame buffer immediately — inside the node lock, while the
// node-owned Meta scratch is still valid — and staging (destination,
// frame) pairs for the flush that happens after the lock is released.
type frameSink struct {
	n      *Node
	frames []stagedFrame
}

type stagedFrame struct {
	to    int
	frame []byte
}

func (s *frameSink) Emit(env core.Envelope) {
	s.frames = append(s.frames, stagedFrame{
		to:    int(env.To),
		frame: AppendUpdate(s.n.pool.Get(), env),
	})
}

func (n *Node) getSink() *frameSink { return n.sinks.Get().(*frameSink) }

func (n *Node) putSink(s *frameSink) {
	s.frames = s.frames[:0]
	n.sinks.Put(s)
}

// flush hands staged frames to the transport. backpressure selects the
// Send vs Forward contract; accepted frames are counted as sent.
func (n *Node) flush(s *frameSink, backpressure bool) {
	for _, sf := range s.frames {
		if sf.to == int(n.self) {
			// Self-addressed envelopes do not cross the wire; decode the
			// staged frame back and deliver locally. Protocols do not emit
			// these (recipient lists exclude the writer), but the contract
			// tolerates them.
			if _, payload, err := DecodeBody(sf.frame[4:]); err == nil {
				if env, err := DecodeUpdate(payload, n.stock); err == nil {
					// Send counts before the delivery, receipt after — the
					// same sent-leads-recv discipline as the network path.
					n.sentUpd.Add(1)
					if n.reg != nil {
						n.reg.Sent(int(n.self), sf.to, len(sf.frame))
					}
					n.deliver(env)
					n.recvUpd.Add(1)
				}
			}
			n.pool.Put(sf.frame)
			continue
		}
		var ok bool
		if backpressure {
			ok = n.tr.Send(sf.to, sf.frame)
		} else {
			ok = n.tr.Forward(sf.to, sf.frame)
		}
		if ok {
			n.sentUpd.Add(1)
			if n.reg != nil {
				// Bytes here are whole wire frames (header included) — the
				// wire runtime measures what actually crosses the network,
				// not just metadata.
				n.reg.Sent(int(n.self), sf.to, len(sf.frame))
			}
		}
	}
	n.putSink(s)
}

// deliver ingests one update at the node and forwards whatever it emits.
func (n *Node) deliver(env core.Envelope) {
	s := n.getSink()
	n.nodeMu.Lock()
	if n.logF != nil {
		// Log before apply, inside the lock: env.Meta is still valid
		// scratch here, and the log order must be the apply order.
		frame := AppendUpdate(n.pool.Get(), env)
		n.logAppend(frame)
		n.pool.Put(frame)
	}
	applied := n.node.HandleMessage(env, s)
	n.applied.Add(uint64(len(applied)))
	n.nodeMu.Unlock()
	if n.reg != nil {
		na := len(applied)
		if env.MetaOnly {
			na = obs.MetaOnly
		}
		n.reg.Deliver(int(env.From), int(n.self), na)
	}
	n.flush(s, false)
}

// clientWrite performs one client write, blocking under transport
// backpressure (the Send contract).
func (n *Node) clientWrite(reg sharegraph.Register, val core.Value) error {
	s := n.getSink()
	n.nodeMu.Lock()
	if n.logF != nil {
		frame := AppendWrite(n.pool.Get(), reg, val)
		n.logAppend(frame)
		n.pool.Put(frame)
	}
	// Oracle IDs are process-local: the causality oracle does not cross
	// process boundaries, so these only need to be distinct within the
	// node (the emit contract requires an ID, not a globally audited one).
	id := causality.UpdateID(n.idSeq.Add(1) - 1)
	err := n.node.HandleWrite(reg, val, id, s)
	n.nodeMu.Unlock()
	if err != nil {
		n.putSink(s)
		return err
	}
	n.flush(s, true)
	return nil
}

// Status returns the node's transport counters.
func (n *Node) Status() Status {
	n.nodeMu.Lock()
	pending := n.node.PendingCount()
	n.nodeMu.Unlock()
	return Status{
		Applied:   n.applied.Load(),
		Pending:   uint64(pending),
		SentUpd:   n.sentUpd.Load(),
		RecvUpd:   n.recvUpd.Load(),
		QueuedOut: uint64(n.tr.QueuedOut()),
	}
}

// Metrics returns the node's counters in the unified cross-runtime
// snapshot schema. Per-edge breakdowns are present only when
// NodeOptions.StatusAddr armed the registry; the legacy totals are
// always filled from the transport counters. This is the same snapshot
// /statusz serves.
func (n *Node) Metrics() obs.Snapshot {
	s := n.reg.Snapshot()
	s.Runtime = "wire"
	s.Messages = int64(n.sentUpd.Load())
	s.Updates = int64(n.applied.Load())
	s.Outstanding = int64(n.tr.QueuedOut())
	n.nodeMu.Lock()
	parked := int64(n.node.PendingCount())
	n.nodeMu.Unlock()
	s.Parked = parked
	if int(n.self) < len(s.Replicas) {
		s.Replicas[n.self].Parked = parked
	}
	for _, e := range s.Edges {
		s.MetaBytes += e.Bytes
	}
	return s
}

// snapshot returns the replica's register contents, sorted by register
// name (Sorted()'s order) so the encoding is byte-stable.
func (n *Node) snapshot() ([]sharegraph.Register, []core.Value) {
	regs := n.g.Stores(n.self).Sorted()
	vals := make([]core.Value, 0, len(regs))
	kept := regs[:0]
	n.nodeMu.Lock()
	for _, x := range regs {
		if v, ok := n.node.Read(x); ok {
			kept = append(kept, x)
			vals = append(vals, v)
		}
	}
	n.nodeMu.Unlock()
	return kept, vals
}

// State returns the replica's registers as a map (the in-process shape
// sim.Cluster.StateSnapshot produces for one replica).
func (n *Node) State() map[sharegraph.Register]core.Value {
	regs, vals := n.snapshot()
	out := make(map[sharegraph.Register]core.Value, len(regs))
	for i, x := range regs {
		out[x] = vals[i]
	}
	return out
}
