package wire

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	rt "repro/internal/runtime"
	"repro/internal/transport"
)

// TransportOptions configures a Transport. The zero value selects the
// documented defaults.
type TransportOptions struct {
	// QueueCap bounds each peer's outgoing frame queue (default 1024),
	// counting both the frames waiting and those in the batch being
	// written. Send blocks while a peer's queue is at capacity — the same
	// backpressure contract as the in-process engine's inboxes.
	QueueCap int
	// DialBackoffBase is the first reconnect delay (default 5ms); it
	// doubles per failed attempt up to DialBackoffMax (default 1s) —
	// the shared runtime.Backoff discipline.
	DialBackoffBase time.Duration
	DialBackoffMax  time.Duration
	// DrainAttempts bounds dial attempts per batch once Close has begun
	// (default 3): a peer that stays unreachable during shutdown should
	// not wedge the drain forever. Frames still queued when the attempts
	// run out are dropped, like messages sent after an engine shutdown.
	DrainAttempts int
	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
}

func (o TransportOptions) withDefaults() TransportOptions {
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
	if o.DialBackoffBase <= 0 {
		o.DialBackoffBase = 5 * time.Millisecond
	}
	if o.DialBackoffMax <= 0 {
		o.DialBackoffMax = time.Second
	}
	if o.DrainAttempts <= 0 {
		o.DrainAttempts = 3
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	return o
}

// Transport is the TCP half of the runtime seam: the counterpart, across
// process boundaries, of internal/runtime.Engine's in-process inboxes
// (that package's doc states the backpressure contract the two share).
// One Transport serves one local replica; it owns a lazily-created
// outgoing connection per peer, each with a bounded frame queue drained by
// a dedicated writer goroutine that dials on demand and reconnects with
// capped exponential backoff (runtime.Backoff).
//
// The queue is group-committed: enqueued frames are copied back to back
// into one byte buffer, and each time the writer wakes it swaps that
// buffer out and writes its whole backlog with a single conn.Write. A
// frame counts toward QueueCap until the batch holding it is on the
// socket.
//
//   - Send mirrors Engine.Send: it blocks while the peer's queue is at
//     capacity (client-operation backpressure).
//   - Forward mirrors Engine.Forward: it enqueues above capacity, because
//     a reader goroutine mid-delivery that blocked on a full queue could
//     deadlock two replicas forwarding to each other.
//   - Flush mirrors Quiesce for the outgoing half: it blocks until every
//     queued frame has been written to a socket.
//   - Close drains each queue to the socket (bounded redial attempts),
//     closes the connections and joins the writers.
//
// Frames are pooled []byte buffers: the transport takes ownership on
// Send/Forward, copies the bytes into the peer's buffer and returns the
// frame to the pool before Send/Forward returns, so the steady-state send
// path allocates nothing and no frame outlives its enqueue.
type Transport struct {
	self  int
	addrs []string
	opts  TransportOptions
	pool  *transport.BytePool

	mu      sync.Mutex
	peers   []*peer // lazily created, indexed by replica ID
	closing bool
	wg      sync.WaitGroup
}

// batcher is the group commit every outgoing stream shares, peer links
// and client connections alike: frames are appended back to back to pend,
// and one writer goroutine per stream swaps pend out and writes the whole
// backlog with one call per wake-up. It counts frames (a peer's QueueCap)
// and bytes (a client's buffer bound and request watermark); the stream
// supplies what writing a batch means and what a failure does.
type batcher struct {
	mu      sync.Mutex
	kick    *sync.Cond // pend became non-empty, or closing
	drained *sync.Cond // a batch finished, or the writer stopped
	pend    []byte     // frames awaiting the writer
	spare   []byte     // the previous batch's buffer, reused by the next swap
	npend   int        // frames in pend
	flight  int        // frames in the batch being written
	queued  uint64     // bytes ever appended to pend
	flushed uint64     // bytes ever written by a finished batch
	closing bool
	stopped bool
	done    chan struct{} // closed when the writer loop has returned
}

func (b *batcher) init() {
	b.kick = sync.NewCond(&b.mu)
	b.drained = sync.NewCond(&b.mu)
	b.done = make(chan struct{})
}

// added records the frame just appended to pend at offset from and wakes
// the writer. Caller holds b.mu.
func (b *batcher) added(from int) {
	b.npend++
	b.queued += uint64(len(b.pend) - from)
	b.kick.Signal()
}

// backlog returns the number of frames not yet on a socket: those
// pending plus those in the batch being written. Caller holds b.mu.
func (b *batcher) backlog() int { return b.npend + b.flight }

// waitFlushed blocks until every byte appended before the call has been
// written, or the writer has stopped. Caller holds b.mu.
func (b *batcher) waitFlushed() {
	for upTo := b.queued; b.flushed < upTo && !b.stopped; {
		b.drained.Wait()
	}
}

// run is the writer loop. It hands each batch to write, with whether
// Close had begun when the batch was taken, and returns once closing has
// drained pend or write fails; stop then runs under b.mu with the error
// (nil on a clean drain) and the failed batch still counted in flight.
func (b *batcher) run(write func(batch []byte, closing bool) error, stop func(error)) {
	b.mu.Lock()
	defer func() {
		b.stopped, b.flight = true, 0
		b.drained.Broadcast()
		b.mu.Unlock()
		close(b.done)
	}()
	for {
		for b.npend == 0 && !b.closing {
			b.kick.Wait()
		}
		if b.npend == 0 {
			stop(nil)
			return
		}
		batch := b.pend
		b.pend, b.spare = b.spare[:0], nil
		b.flight, b.npend = b.npend, 0
		closing := b.closing
		b.mu.Unlock()
		err := write(batch, closing)
		b.mu.Lock()
		b.spare = batch[:0]
		if err != nil {
			stop(err)
			return
		}
		b.flight = 0
		b.flushed += uint64(len(batch))
		b.drained.Broadcast()
	}
}

// peer is one outgoing link: a bounded batcher of encoded frames whose
// writer dials on demand and resumes a failed batch on a fresh
// connection.
type peer struct {
	t    *Transport
	id   int
	addr string
	batcher
	dropped uint64 // frames dropped at drain exhaustion
}

// NewTransport builds a transport for replica self of the given address
// list. Connections are dialed on first use, so peers may start in any
// order. Frames handed to Send/Forward must originate from pool (they are
// returned to it when done).
func NewTransport(self int, addrs []string, pool *transport.BytePool, opts TransportOptions) *Transport {
	return &Transport{
		self:  self,
		addrs: addrs,
		opts:  opts.withDefaults(),
		pool:  pool,
		peers: make([]*peer, len(addrs)),
	}
}

// Pool returns the frame buffer pool the transport recycles through.
func (t *Transport) Pool() *transport.BytePool { return t.pool }

func (t *Transport) peerFor(to int) (*peer, error) {
	if to < 0 || to >= len(t.addrs) {
		return nil, fmt.Errorf("wire: no peer %d in %d-replica cluster", to, len(t.addrs))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closing {
		return nil, fmt.Errorf("wire: transport closing")
	}
	p := t.peers[to]
	if p == nil {
		p = &peer{t: t, id: to, addr: t.addrs[to]}
		p.init()
		t.peers[to] = p
		t.wg.Add(1)
		go p.writer()
	}
	return p, nil
}

// Send enqueues one encoded frame for peer to, blocking while the peer's
// queue is at capacity — the backpressure path for client operations.
// The transport takes ownership of the frame buffer. It reports whether
// the frame was accepted; frames racing shutdown are returned to the
// pool and refused.
func (t *Transport) Send(to int, frame []byte) bool { return t.enqueue(to, frame, true) }

// Forward enqueues one encoded frame without backpressure — the path for
// frames produced while delivering another frame, where blocking could
// deadlock two replicas forwarding to each other.
func (t *Transport) Forward(to int, frame []byte) bool { return t.enqueue(to, frame, false) }

func (t *Transport) enqueue(to int, frame []byte, backpressure bool) bool {
	p, err := t.peerFor(to)
	if err != nil {
		t.pool.Put(frame)
		return false
	}
	p.mu.Lock()
	if backpressure {
		for p.backlog() >= t.opts.QueueCap && !p.closing {
			p.drained.Wait()
		}
	}
	if p.closing {
		p.mu.Unlock()
		t.pool.Put(frame)
		return false
	}
	from := len(p.pend)
	p.pend = append(p.pend, frame...)
	p.added(from)
	p.mu.Unlock()
	t.pool.Put(frame)
	return true
}

// writer drains the peer's queue to its socket through the batcher. A
// batch whose write fails resumes on a fresh connection at its first
// frame not fully written — the old connection dies with its partial
// bytes, so the receiver never sees a torn or duplicated frame from this
// path. write gives up only once Close has begun and the dial budget is
// spent; the pending frames would hit the same wall, so they are dropped
// with the batch instead of re-dialing per batch.
func (p *peer) writer() {
	defer p.t.wg.Done()
	var conn *outConn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	p.run(func(batch []byte, closing bool) error {
		return p.write(&conn, batch, closing)
	}, func(err error) {
		if err != nil {
			p.dropped += uint64(p.flight + p.npend)
			p.pend, p.npend = p.pend[:0], 0
		}
	})
}

// outConn is one established outgoing link plus its death watch. The
// receiving node never sends on update links, so a read returning on
// this conn means only one thing: the peer closed or died (FIN/RST).
// Without the watch, the first write after a quiescent peer death would
// succeed into the local socket buffer and be silently RST'd — lost
// with no error to trigger the redial-and-resend path. The watch turns
// that one-frame loss window into an immediate pre-write redial
// whenever the death was detectable before the next frame (true for any
// idle gap longer than the FIN's flight time, e.g. a crash between
// workload phases).
type outConn struct {
	net.Conn
	dead atomic.Bool
}

func (c *outConn) watch() {
	var buf [256]byte
	for {
		if _, err := c.Read(buf[:]); err != nil {
			c.dead.Store(true)
			return
		}
		// Data on an update link is unexpected but not fatal; keep
		// draining so a chatty peer cannot stall the watch.
	}
}

// write delivers one batch of frames over the peer's connection,
// (re)dialing as needed. After a failed write it resumes on the fresh
// connection at the first frame the old one did not take whole. During a
// drain (closing), dial attempts are bounded so an unreachable peer
// cannot wedge shutdown; it fails only when they run out.
func (p *peer) write(conn **outConn, batch []byte, closing bool) error {
	attempts := 0
	for len(batch) > 0 {
		if *conn != nil && (*conn).dead.Load() {
			(*conn).Close()
			*conn = nil
		}
		if *conn == nil {
			c, err := p.dial(&attempts, closing)
			if err != nil {
				return err // drain attempts exhausted
			}
			*conn = &outConn{Conn: c}
			go (*conn).watch()
		}
		n, err := (*conn).Write(batch)
		if err == nil {
			return nil
		}
		batch = resumeAt(batch, n)
		(*conn).Close()
		*conn = nil
	}
	return nil
}

// resumeAt returns the suffix of buf, a run of length-prefixed frames,
// that starts at the first frame not wholly inside buf[:n] — where a
// write that accepted n bytes of buf must resume on a new connection.
func resumeAt(buf []byte, n int) []byte {
	off := 0
	for off+4 <= len(buf) {
		end := off + 4 + int(binary.BigEndian.Uint32(buf[off:]))
		if end > n {
			break
		}
		off = end
	}
	return buf[off:]
}

// dial establishes the peer connection, sending the Hello identity frame
// before any data. Retries with the shared capped-backoff discipline;
// when closing, attempts are bounded by DrainAttempts.
func (p *peer) dial(attempts *int, closing bool) (net.Conn, error) {
	for {
		*attempts++
		if closing && *attempts > p.t.opts.DrainAttempts {
			return nil, fmt.Errorf("wire: peer %d unreachable during drain", p.id)
		}
		c, err := net.DialTimeout("tcp", p.addr, p.t.opts.DialTimeout)
		if err == nil {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			hello := AppendHello(p.t.pool.Get(), p.t.self)
			_, werr := c.Write(hello)
			p.t.pool.Put(hello)
			if werr == nil {
				return c, nil
			}
			c.Close()
			err = werr
		}
		// Also give up mid-backoff if Close started while we were
		// retrying against a dead peer with live traffic queued.
		if !closing {
			p.mu.Lock()
			closing = p.closing
			p.mu.Unlock()
			if closing && *attempts > p.t.opts.DrainAttempts {
				return nil, err
			}
		}
		time.Sleep(rt.Backoff(p.t.opts.DialBackoffBase, *attempts, p.t.opts.DialBackoffMax))
	}
}

// each calls f on every peer created so far, holding that peer's lock.
func (t *Transport) each(f func(p *peer)) {
	t.mu.Lock()
	peers := append([]*peer(nil), t.peers...)
	t.mu.Unlock()
	for _, p := range peers {
		if p != nil {
			p.mu.Lock()
			f(p)
			p.mu.Unlock()
		}
	}
}

// QueuedOut returns the number of frames enqueued but not yet written to
// a socket (including the batch mid-write), summed over peers — the
// transport half of the quiesce condition the status protocol exposes.
func (t *Transport) QueuedOut() int {
	n := 0
	t.each(func(p *peer) { n += p.backlog() })
	return n
}

// Dropped returns the number of frames dropped across peers (drain
// exhaustion against unreachable peers); zero in a healthy run.
func (t *Transport) Dropped() uint64 {
	var n uint64
	t.each(func(p *peer) { n += p.dropped })
	return n
}

// Flush blocks until every queued frame has been written to a socket —
// the outgoing half of Quiesce. Frames enqueued concurrently with Flush
// may or may not be covered.
func (t *Transport) Flush() { t.each((*peer).waitFlushed) }

// Close drains every peer queue to its socket (bounded redial attempts
// against unreachable peers), closes the connections, and joins the
// writer goroutines. Sends racing Close are refused and their frames
// recycled.
func (t *Transport) Close() {
	t.mu.Lock()
	t.closing = true
	t.mu.Unlock()
	t.each(func(p *peer) {
		p.closing = true
		p.kick.Broadcast()
		p.drained.Broadcast()
	})
	t.wg.Wait()
}
