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

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sharegraph"
	"repro/internal/transport"
)

// Node serves one replica as a network server: a Host — the replica's
// deployed logic — behind a TCP listener, with outgoing updates routed
// through a Transport. It is the process-boundary analogue of one slot of
// sim.Cluster — the same emit contract, the same backpressure discipline,
// with the wire codec in place of in-process message structs.
//
// Inbound connections are served one reader goroutine each: peer replicas
// stream Update frames; clients stream Write frames and request Status,
// Snapshot and Shutdown. Every frame is stepped through the host under
// the node lock, and emitted envelopes are encoded into pooled frame
// buffers during Emit (inside the lock, satisfying the node-owned-scratch
// contract), then handed to the transport after the lock is released so
// backpressure never blocks while holding the node.
type Node struct {
	self sharegraph.ReplicaID
	h    *Host

	pool transport.BytePool
	tr   *Transport
	ln   net.Listener

	nodeMu sync.Mutex
	logF   *os.File // durable mutation log, nil when disabled

	conns   sync.WaitGroup
	connMu  sync.Mutex
	open    map[net.Conn]struct{}
	closed  atomic.Bool
	shutReq chan struct{}
	shutOne sync.Once

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
	// counters after a crash. A mutation whose append fails is not
	// applied: the node closes the link it came on and logs the error,
	// and refuses every later mutation, since the log may end torn.
	// Replay restores SentUpd/RecvUpd exactly, so the client-side quiesce
	// protocol stays sound across a kill -9 and restart of a quiescent
	// node. Updates the transport accepted but had not yet delivered when
	// the process died are not replayed (the transport's queue is
	// volatile); recovery is exact when the cluster was quiescent at
	// crash time.
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
		self:    sharegraph.ReplicaID(self),
		open:    make(map[net.Conn]struct{}),
		shutReq: make(chan struct{}),
		logf:    opts.Logf,
	}
	n.h = NewHost(g, n.self, nodes[self], nil)
	if opts.LogPath != "" {
		if err := n.openLog(opts.LogPath); err != nil {
			return nil, fmt.Errorf("wire: replica %d log: %w", self, err)
		}
	}
	n.tr = NewTransport(self, cfg.Addrs(), &n.pool, opts.Transport)
	if n.ln, err = net.Listen("tcp", cfg.Replicas[self].Addr); err != nil {
		err = fmt.Errorf("wire: replica %d listen: %w", self, err)
	} else if opts.StatusAddr != "" {
		n.h.reg = obs.New(len(cfg.Replicas), 0)
		if n.status, err = obs.Serve(opts.StatusAddr, n.Metrics); err != nil {
			n.ln.Close()
			err = fmt.Errorf("wire: replica %d status: %w", self, err)
		}
	}
	if err != nil {
		n.tr.Close()
		if n.logF != nil {
			n.logF.Close()
		}
		return nil, err
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
		n.logF.Close() // the readers are joined: nothing steps any more
	}
}

// openLog opens (creating if missing) the durable mutation log, replays
// whatever it already holds into the host's freshly built protocol
// state, and positions the file for the host's appends, which land in
// the kernel page cache: that survives a SIGKILL of this process (crash
// recovery targets process death, not host death — no fsync). The log is
// a sequence of ordinary wire frames in apply order. A torn tail — a
// frame cut short by a crash mid-append — is truncated away:
// log-before-apply means a torn frame was never applied and its
// emissions never left the process, so dropping it is the consistent
// choice.
func (n *Node) openLog(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	good, err := n.h.Replay(f)
	if err != nil {
		// Replaying a prefix is always safe, and the truncate that follows
		// discards the junk.
		n.logf("wire: replica %d: log replay stops at offset %d: %v", n.self, good, err)
	}
	if err = f.Truncate(good); err == nil {
		_, err = f.Seek(good, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return err
	}
	n.logF, n.h.log = f, f
	return nil
}

func (n *Node) dropConn(conn net.Conn) {
	n.connMu.Lock()
	delete(n.open, conn)
	n.connMu.Unlock()
	conn.Close()
	n.conns.Done()
}

// serveConn is one inbound reader: Hello first, then frames until EOF.
// The Hello id is the link's identity; the host checks every later frame
// against it.
func (n *Node) serveConn(conn net.Conn) {
	defer n.dropConn(conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	s := &frameSink{n: n} // staging for one frame at a time
	from := 0
	for first := true; ; first = false {
		frame, err := readFrame(br, &buf)
		if err != nil {
			if !errors.Is(err, io.EOF) && !n.closed.Load() {
				n.logf("wire: replica %d: read: %v", n.self, err)
			}
			return
		}
		if first {
			if from, err = n.h.Hello(frame); err != nil {
				n.logf("wire: replica %d: %v", n.self, err)
				return
			}
			continue
		}
		if kind, err := n.handleFrame(conn, s, from, frame); err != nil {
			n.logf("wire: replica %d: %v frame from %d: %v", n.self, kind, from, err)
			return
		}
	}
}

// handleFrame steps one frame through the host and does its I/O: it
// flushes what a mutation emitted and answers requests.
func (n *Node) handleFrame(conn net.Conn, s *frameSink, from int, frame []byte) (Kind, error) {
	n.nodeMu.Lock()
	kind, _, err := n.h.Step(from, frame, s)
	n.nodeMu.Unlock()
	// A client write blocks under transport backpressure (the Send
	// contract); a refused frame has emitted nothing.
	n.flush(s, kind == KindWrite)
	if err != nil {
		return kind, err
	}
	var reply []byte
	switch kind {
	case KindUpdate:
		// Receipt is counted only after the delivery — including the flush
		// of whatever it emitted — completes: the quiesce protocol's
		// soundness rests on sum(sent) exceeding sum(recv) while any
		// update is accepted but not yet fully processed.
		n.h.Received()
	case KindStatus:
		reply = AppendStatus(n.pool.Get(), n.Status())
	case KindSnapshot:
		regs, vals := n.snapshot()
		reply = AppendSnapshot(n.pool.Get(), regs, vals)
	case KindShutdown:
		n.shutOne.Do(func() { close(n.shutReq) })
	}
	if reply != nil {
		_, err = conn.Write(reply)
		n.pool.Put(reply)
	}
	return kind, err
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

// flush hands staged frames to the transport and empties the sink.
// backpressure selects the Send vs Forward contract. No router emits to
// its own replica (recipient lists exclude the writer, and relay routes
// are simple paths), so every frame crosses the wire.
func (n *Node) flush(s *frameSink, backpressure bool) {
	for _, sf := range s.frames {
		var ok bool
		if backpressure {
			ok = n.tr.Send(sf.to, sf.frame)
		} else {
			ok = n.tr.Forward(sf.to, sf.frame)
		}
		if ok && n.h.reg != nil {
			// Bytes here are whole wire frames (header included) — the
			// wire runtime measures what actually crosses the network,
			// not just metadata.
			n.h.reg.Sent(int(n.self), sf.to, len(sf.frame))
		}
	}
	s.frames = s.frames[:0]
}

// Status returns the node's counters.
func (n *Node) Status() Status {
	n.nodeMu.Lock()
	s := n.h.Status()
	n.nodeMu.Unlock()
	s.QueuedOut = uint64(n.tr.QueuedOut())
	return s
}

// Metrics returns the node's counters in the unified cross-runtime
// snapshot schema. Per-edge breakdowns are present only when
// NodeOptions.StatusAddr armed the registry; the legacy totals are
// always filled from the host's counters. This is the same snapshot
// /statusz serves.
func (n *Node) Metrics() obs.Snapshot {
	s := n.h.reg.Snapshot()
	st := n.Status()
	s.Runtime = "wire"
	s.Messages = int64(st.SentUpd)
	s.Updates = int64(st.Applied)
	s.Outstanding = int64(st.QueuedOut)
	s.Parked = int64(st.Pending)
	if int(n.self) < len(s.Replicas) {
		s.Replicas[n.self].Parked = s.Parked
	}
	for _, e := range s.Edges {
		s.MetaBytes += e.Bytes
	}
	return s
}

// snapshot returns the replica's register contents in Host.Snapshot's
// order.
func (n *Node) snapshot() ([]sharegraph.Register, []core.Value) {
	n.nodeMu.Lock()
	defer n.nodeMu.Unlock()
	return n.h.Snapshot()
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
