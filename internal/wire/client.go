package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
	"repro/internal/workload"
)

// Client drives a deployed cluster: one connection per replica and a
// counter-based quiesce protocol that detects when every update the
// workload produced has been delivered and applied.
//
// Writes are buffered: Write appends the frame to its connection's
// buffer and returns, and a writer goroutine per connection writes the
// whole backlog with one socket write per wake-up (TCP ordering still
// preserves each replica's program order). A write error is sticky: the
// connection's next Write, Status, Snapshot or Shutdown returns it. Every
// request — Status, Snapshot, Shutdown — first waits until the buffered
// writes are on the socket, so TCP order puts them before the request;
// Quiesce rests on that.
type Client struct {
	cfg   ClusterConfig
	conns []*clientConn
}

// clientBufMax is the buffered-write backlog at which Write blocks until
// the writer has drained the connection's buffer.
const clientBufMax = 64 << 10

// closeDrainTimeout bounds how long Close waits for buffered writes to
// reach a peer that has stopped reading.
const closeDrainTimeout = 5 * time.Second

// clientConn is one replica link: a batcher for the buffered writes,
// whose writer goroutine stops at the first failed write, and req, which
// serialises request/response exchanges and owns the read side.
type clientConn struct {
	conn net.Conn
	batcher
	err error // sticky: the first write error, or net.ErrClosed after Close

	req sync.Mutex
	br  *bufio.Reader
	buf []byte
}

func newClientConn(conn net.Conn) *clientConn {
	cc := &clientConn{conn: conn, br: bufio.NewReader(conn)}
	cc.init()
	go cc.run(func(batch []byte, _ bool) error {
		_, err := cc.conn.Write(batch)
		return err
	}, func(err error) {
		if err == nil {
			err = net.ErrClosed
		}
		cc.fail(err)
	})
	return cc
}

// Dial connects to every replica in the config, retrying each with the
// shared capped-backoff discipline until timeout — nodes may still be
// starting when the client launches.
func Dial(cfg ClusterConfig, timeout time.Duration) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, conns: make([]*clientConn, len(cfg.Replicas))}
	deadline := time.Now().Add(timeout)
	for i, r := range cfg.Replicas {
		conn, err := dialUntil(r.Addr, deadline)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("wire: dial replica %d at %s: %w", i, r.Addr, err)
		}
		if _, err := conn.Write(AppendHello(nil, ClientID)); err != nil {
			conn.Close()
			c.Close()
			return nil, fmt.Errorf("wire: hello to replica %d: %w", i, err)
		}
		c.conns[i] = newClientConn(conn)
	}
	return c, nil
}

func dialUntil(addr string, deadline time.Time) (net.Conn, error) {
	for attempts := 1; ; attempts++ {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(rt.Backoff(5*time.Millisecond, attempts, 500*time.Millisecond))
	}
}

// Close writes out every connection's buffered writes (bounded by
// closeDrainTimeout against a peer that stopped reading), closes the
// connections and joins their writers. Later calls return an error.
func (c *Client) Close() {
	for _, cc := range c.conns {
		if cc != nil {
			cc.close()
		}
	}
}

// Graph returns the share graph derived from the client's config.
func (c *Client) Graph() (*sharegraph.Graph, error) { return c.cfg.Graph() }

// Write issues a client write at replica r: it buffers the frame for the
// connection's writer, blocking while clientBufMax bytes are already
// buffered. It returns the connection's sticky error, if any.
func (c *Client) Write(r sharegraph.ReplicaID, reg sharegraph.Register, val core.Value) error {
	cc := c.conns[r]
	cc.mu.Lock()
	for len(cc.pend) >= clientBufMax && !cc.stopped {
		cc.drained.Wait()
	}
	err := cc.err
	if err == nil {
		from := len(cc.pend)
		cc.pend = AppendWrite(cc.pend, reg, val)
		cc.added(from)
	}
	cc.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wire: write to replica %d: %w", r, err)
	}
	return nil
}

// fail records the connection's sticky error, keeping the first.
// Caller holds cc.mu.
func (cc *clientConn) fail(err error) {
	if cc.err == nil {
		cc.err = err
	}
}

// send writes one request frame once every write buffered before the
// call is on the socket, so TCP order puts those writes first. Caller
// holds cc.req.
func (cc *clientConn) send(req []byte) error {
	cc.mu.Lock()
	cc.waitFlushed()
	err := cc.err
	cc.mu.Unlock()
	if err != nil {
		return err
	}
	if _, err := cc.conn.Write(req); err != nil {
		cc.mu.Lock()
		cc.fail(err)
		cc.mu.Unlock()
		return err
	}
	return nil
}

func (cc *clientConn) close() {
	cc.mu.Lock()
	cc.closing = true
	cc.kick.Signal()
	cc.mu.Unlock()
	cc.conn.SetWriteDeadline(time.Now().Add(closeDrainTimeout))
	<-cc.done
	cc.conn.Close()
}

// roundTrip sends a request frame and reads one response frame, which
// must have the given kind.
func (cc *clientConn) roundTrip(req []byte, want Kind) ([]byte, error) {
	cc.req.Lock()
	defer cc.req.Unlock()
	if err := cc.send(req); err != nil {
		return nil, err
	}
	body, err := ReadFrame(cc.br, &cc.buf)
	if err != nil {
		return nil, err
	}
	kind, payload, err := DecodeBody(body)
	if err != nil {
		return nil, err
	}
	if kind != want {
		return nil, fmt.Errorf("wire: got %v response, want %v", kind, want)
	}
	return payload, nil
}

// Status polls replica r's transport counters.
func (c *Client) Status(r sharegraph.ReplicaID) (Status, error) {
	payload, err := c.conns[r].roundTrip(AppendStatusReq(nil), KindStatus)
	if err != nil {
		return Status{}, fmt.Errorf("wire: status of replica %d: %w", r, err)
	}
	s, isResp, err := DecodeStatus(payload)
	if err != nil || !isResp {
		return Status{}, fmt.Errorf("wire: status of replica %d: bad response (%v)", r, err)
	}
	return s, nil
}

// Metrics polls every replica's Status and folds the counters into the
// unified cross-runtime snapshot schema: per-replica applied/parked
// breakdowns plus cluster-wide totals. The client sees only the wire
// protocol's transport counters, so edge breakdowns are absent — scrape
// a node's /statusz (NodeOptions.StatusAddr) for those.
func (c *Client) Metrics() (obs.Snapshot, error) {
	s := obs.Snapshot{
		Runtime:  "wire",
		Replicas: make([]obs.ReplicaMetrics, len(c.conns)),
	}
	for r := range c.conns {
		st, err := c.Status(sharegraph.ReplicaID(r))
		if err != nil {
			return obs.Snapshot{}, err
		}
		s.Replicas[r] = obs.ReplicaMetrics{
			Delivered: int64(st.RecvUpd),
			Applied:   int64(st.Applied),
			Parked:    int64(st.Pending),
		}
		s.Messages += int64(st.SentUpd)
		s.Updates += int64(st.Applied)
		s.Outstanding += int64(st.QueuedOut)
		s.Parked += int64(st.Pending)
	}
	return s, nil
}

// Snapshot fetches replica r's register contents.
func (c *Client) Snapshot(r sharegraph.ReplicaID) (map[sharegraph.Register]core.Value, error) {
	payload, err := c.conns[r].roundTrip(AppendSnapshotReq(nil), KindSnapshot)
	if err != nil {
		return nil, fmt.Errorf("wire: snapshot of replica %d: %w", r, err)
	}
	st, isResp, err := DecodeSnapshot(payload)
	if err != nil || !isResp {
		return nil, fmt.Errorf("wire: snapshot of replica %d: bad response (%v)", r, err)
	}
	return st, nil
}

// Snapshots fetches every replica's state in ID order.
func (c *Client) Snapshots() ([]map[sharegraph.Register]core.Value, error) {
	out := make([]map[sharegraph.Register]core.Value, len(c.conns))
	for r := range c.conns {
		st, err := c.Snapshot(sharegraph.ReplicaID(r))
		if err != nil {
			return nil, err
		}
		out[r] = st
	}
	return out, nil
}

// Shutdown asks every replica to exit, after the buffered writes to it
// are on the socket.
func (c *Client) Shutdown() error {
	for r, cc := range c.conns {
		cc.req.Lock()
		err := cc.send(AppendShutdown(nil))
		cc.req.Unlock()
		if err != nil {
			return fmt.Errorf("wire: shutdown replica %d: %w", r, err)
		}
	}
	return nil
}

// RunScript drives a workload like sim.Cluster.RunScript: one goroutine
// per replica issues that replica's operations in script order over its
// connection (TCP preserves the per-replica program order; reads are
// performed as snapshots of the addressed register's holder, which the
// wire protocol serves non-blocking like any read).
func (c *Client) RunScript(script workload.Script) error {
	queues := make([][]workload.Op, len(c.conns))
	for _, op := range script {
		queues[op.Replica] = append(queues[op.Replica], op)
	}
	errs := make(chan error, len(queues))
	var wg sync.WaitGroup
	var val atomic.Int64
	for r := range queues {
		if len(queues[r]) == 0 {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for _, op := range queues[r] {
				if op.IsRead {
					// Reads never block and do not change state; the
					// scripted differential workloads are write-only, so a
					// read here is just a liveness touch.
					if _, err := c.Snapshot(sharegraph.ReplicaID(r)); err != nil {
						errs <- err
						return
					}
					continue
				}
				v := op.Val
				if v == 0 {
					v = val.Add(1)
				}
				if err := c.Write(sharegraph.ReplicaID(r), op.Reg, core.Value(v)); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// Quiesce polls Status until the cluster is provably idle: two
// consecutive rounds with identical counters on every node, every
// outgoing queue empty, and the cluster-wide update send and receive
// totals equal (monotone counters make the double poll sound: if nothing
// changed between two rounds and nothing is queued or in flight, nothing
// can change again until new client traffic arrives).
func (c *Client) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var prev []Status
	for attempts := 1; ; attempts++ {
		cur := make([]Status, len(c.conns))
		for r := range c.conns {
			s, err := c.Status(sharegraph.ReplicaID(r))
			if err != nil {
				return err
			}
			cur[r] = s
		}
		if quiesced(prev, cur) {
			return nil
		}
		prev = cur
		if time.Now().After(deadline) {
			return fmt.Errorf("wire: cluster did not quiesce within %v: %+v", timeout, cur)
		}
		time.Sleep(rt.Backoff(time.Millisecond, attempts, 50*time.Millisecond))
	}
}

// quiesced reports whether the two poll rounds prove idleness.
func quiesced(prev, cur []Status) bool {
	if prev == nil {
		return false
	}
	var sent, recv uint64
	for r := range cur {
		if cur[r] != prev[r] || cur[r].QueuedOut != 0 {
			return false
		}
		sent += cur[r].SentUpd
		recv += cur[r].RecvUpd
	}
	return sent == recv
}
