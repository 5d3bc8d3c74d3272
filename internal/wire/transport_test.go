package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/transport"
)

// frameServer accepts connections and records every frame body it reads,
// keyed by nothing — transport tests care about content and count, not
// provenance.
type frameServer struct {
	t  *testing.T
	ln net.Listener

	mu      sync.Mutex
	hellos  []int
	bodies  [][]byte
	accepts int

	dropNext atomic.Bool   // close the next accepted conn after its hello
	hold     chan struct{} // if set, readers wait for it to close before reading
	wg       sync.WaitGroup
}

func newFrameServer(t *testing.T) *frameServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveFrames(t, ln, nil)
}

// serveFrames runs a frame server on ln. With hold set, its readers
// accept connections but read nothing until hold is closed.
func serveFrames(t *testing.T, ln net.Listener, hold chan struct{}) *frameServer {
	s := &frameServer{t: t, ln: ln, hold: hold}
	s.wg.Add(1)
	go s.loop()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *frameServer) addr() string { return s.ln.Addr().String() }

func (s *frameServer) loop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.accepts++
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *frameServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	if s.hold != nil {
		<-s.hold
	}
	br := bufio.NewReader(conn)
	var buf []byte
	for first := true; ; first = false {
		body, err := ReadFrame(br, &buf)
		if err != nil {
			return
		}
		kind, payload, err := DecodeBody(body)
		if err != nil {
			s.t.Errorf("server: bad frame: %v", err)
			return
		}
		s.mu.Lock()
		if kind == KindHello {
			id, _ := DecodeHello(payload)
			s.hellos = append(s.hellos, id)
		} else {
			s.bodies = append(s.bodies, append([]byte(nil), body...))
		}
		s.mu.Unlock()
		if first && s.dropNext.CompareAndSwap(true, false) {
			return // simulate a peer crash right after the handshake
		}
	}
}

func (s *frameServer) frameCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bodies)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTransportDelivers(t *testing.T) {
	srv := newFrameServer(t)
	var pool transport.BytePool
	tr := NewTransport(0, []string{"127.0.0.1:1", srv.addr()}, &pool, TransportOptions{})
	t.Cleanup(tr.Close) // before the server cleanup, which joins readers
	const n = 50
	for i := 0; i < n; i++ {
		if !tr.Send(1, AppendWrite(pool.Get(), "a", 1)) {
			t.Fatalf("send %d refused", i)
		}
	}
	tr.Flush()
	waitFor(t, "frames", func() bool { return srv.frameCount() == n })
	tr.Close()
	if got := pool.Live(); got != 0 {
		t.Fatalf("pool balance after close: %d live buffers", got)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.hellos) != 1 || srv.hellos[0] != 0 {
		t.Fatalf("hellos = %v, want [0]", srv.hellos)
	}
}

// TestTransportBackpressure pins the Send vs Forward contract: with the
// peer unreachable, Send blocks once the queue is full, Forward keeps
// enqueueing, and Close releases the blocked sender with a refusal.
func TestTransportBackpressure(t *testing.T) {
	// An address that cannot be dialed: a closed listener's port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	var pool transport.BytePool
	tr := NewTransport(0, []string{"x", dead}, &pool, TransportOptions{
		QueueCap:        4,
		DialBackoffBase: time.Millisecond,
		DialBackoffMax:  5 * time.Millisecond,
		DialTimeout:     50 * time.Millisecond,
	})
	// Overfill the queue through Forward, which is exempt from
	// backpressure: the stuck writer holds at most one frame, so ten
	// forwards pin the queue above capacity no matter how the writer
	// interleaves.
	for i := 0; i < 10; i++ {
		if !tr.Forward(1, AppendWrite(pool.Get(), "b", 2)) {
			t.Fatalf("forward %d refused", i)
		}
	}
	// The next Send must block: run it in a goroutine and confirm it has
	// not returned, then confirm Close releases it with a refusal.
	done := make(chan bool, 1)
	go func() { done <- tr.Send(1, AppendWrite(pool.Get(), "c", 3)) }()
	select {
	case <-done:
		t.Fatal("Send returned despite a full queue")
	case <-time.After(50 * time.Millisecond):
	}
	tr.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("blocked Send reported success across Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Send never released by Close")
	}
	if tr.Dropped() == 0 {
		t.Fatal("no frames dropped despite an unreachable peer at Close")
	}
	if got := pool.Live(); got != 0 {
		t.Fatalf("pool balance after close: %d live buffers", got)
	}
	// Sends after Close are refused and their frames recycled.
	if tr.Send(1, AppendWrite(pool.Get(), "d", 4)) {
		t.Fatal("Send accepted after Close")
	}
	if got := pool.Live(); got != 0 {
		t.Fatalf("pool balance after post-close send: %d live buffers", got)
	}
}

// TestTransportSendReleasedByBatchDrain pins the group-commit
// backpressure contract: frames in the batch being written still count
// toward QueueCap, and a sender blocked on a full queue is woken when a
// whole batch drains at once — not only when the queue passes exactly
// one below capacity, which a batch drain jumps over.
func TestTransportSendReleasedByBatchDrain(t *testing.T) {
	// The peer is not listening yet, so the writer sits in its dial
	// backoff while the whole run of frames queues up behind it; once the
	// peer listens, the writer sends its first batch and then takes every
	// remaining frame in one batch, which stalls mid-write because the
	// peer does not read and the frames overflow the loopback socket
	// buffers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var pool transport.BytePool
	tr := NewTransport(0, []string{"x", addr}, &pool, TransportOptions{
		QueueCap:        4,
		DialBackoffBase: time.Millisecond,
		DialBackoffMax:  5 * time.Millisecond,
		DialTimeout:     50 * time.Millisecond,
	})
	reg := sharegraph.Register(strings.Repeat("r", 256<<10))
	const n = 64
	for i := 0; i < n; i++ {
		if !tr.Forward(1, AppendWrite(pool.Get(), reg, core.Value(i))) {
			t.Fatalf("forward %d refused", i)
		}
	}
	if ln, err = net.Listen("tcp", addr); err != nil {
		tr.Close()
		t.Skipf("could not listen again on %s: %v", addr, err)
	}
	hold := make(chan struct{})
	srv := serveFrames(t, ln, hold)
	t.Cleanup(func() {
		select {
		case <-hold:
		default:
			close(hold) // let the server's readers finish on a failed run
		}
		tr.Close()
	})
	waitFor(t, "the writer to take every frame", func() bool {
		p := tr.peers[1]
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.npend == 0
	})
	done := make(chan bool, 1)
	go func() { done <- tr.Send(1, AppendWrite(pool.Get(), reg, n)) }()
	select {
	case <-done:
		t.Fatal("Send returned while the queue was over capacity")
	case <-time.After(50 * time.Millisecond):
	}
	close(hold)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Send refused after the batch drained")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send never released by the batch drain")
	}
	tr.Flush()
	waitFor(t, "every frame", func() bool { return srv.frameCount() == n+1 })
	tr.Close()
	if got := pool.Live(); got != 0 {
		t.Fatalf("pool balance after close: %d live buffers", got)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for i, body := range srv.bodies {
		_, payload, err := DecodeBody(body)
		if err != nil {
			t.Fatal(err)
		}
		_, val, err := DecodeWrite(payload)
		if err != nil {
			t.Fatal(err)
		}
		if val != core.Value(i) {
			t.Fatalf("frame %d carries value %d: frames lost, duplicated or reordered", i, val)
		}
	}
}

// TestTransportReconnects pins the redial discipline: when the peer
// drops the connection, the writer dials a fresh one (with a fresh
// Hello) and later frames keep flowing. Frames that entered the dead
// connection's kernel buffer before the reset arrived are lost — the
// wire transport promises the engine's reliable delivery only while
// peers stay up (crash recovery is the state-transfer layer's job) — so
// the test asserts continued delivery, not exactly-once.
func TestTransportReconnects(t *testing.T) {
	srv := newFrameServer(t)
	srv.dropNext.Store(true) // first connection dies right after Hello
	var pool transport.BytePool
	tr := NewTransport(3, []string{"x", srv.addr()}, &pool, TransportOptions{
		DialBackoffBase: time.Millisecond,
		DialBackoffMax:  10 * time.Millisecond,
	})
	t.Cleanup(tr.Close) // before the server cleanup, which joins readers
	const n = 50
	for i := 0; i < n; i++ {
		if !tr.Send(1, AppendWrite(pool.Get(), "a", 1)) {
			t.Fatalf("send %d refused", i)
		}
		// Slow trickle so the reset from the dropped connection surfaces
		// while frames are still being sent.
		time.Sleep(time.Millisecond)
	}
	tr.Flush()
	waitFor(t, "a reconnect", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.accepts >= 2
	})
	waitFor(t, "frames on the fresh connection", func() bool { return srv.frameCount() >= n/2 })
	tr.Close()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.hellos) < 2 {
		t.Fatalf("hellos = %v, want one per connection", srv.hellos)
	}
	for _, id := range srv.hellos {
		if id != 3 {
			t.Fatalf("hello = %d, want 3", id)
		}
	}
	if got := pool.Live(); got != 0 {
		t.Fatalf("pool balance after close: %d live buffers", got)
	}
}

func TestTransportRejectsUnknownPeer(t *testing.T) {
	var pool transport.BytePool
	tr := NewTransport(0, []string{"x"}, &pool, TransportOptions{})
	defer tr.Close()
	if tr.Send(7, pool.Get()) {
		t.Fatal("send to out-of-range peer accepted")
	}
	if tr.Send(-1, pool.Get()) {
		t.Fatal("send to negative peer accepted")
	}
	if got := pool.Live(); got != 0 {
		t.Fatalf("pool balance: %d live buffers", got)
	}
}

// TestReadFrameReusesBuffer pins the reader's zero-steady-state-alloc
// property: a second same-size frame must land in the same buffer.
func TestReadFrameReusesBuffer(t *testing.T) {
	frame := AppendWrite(nil, "abc", 5)
	stream := append(append([]byte(nil), frame...), frame...)
	r := &sliceReader{b: stream}
	var buf []byte
	b1, err := ReadFrame(r, &buf)
	if err != nil {
		t.Fatal(err)
	}
	p1 := &b1[0]
	b2, err := ReadFrame(r, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if &b2[0] != p1 {
		t.Fatal("second same-size frame reallocated the read buffer")
	}
}

// sliceReader is an io.Reader over a byte slice that does not implement
// io.ReaderAt etc. — keeps ReadFrame on the plain path.
type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// frameRun lays out frames with the given body lengths back to back, each
// behind its 4-byte big-endian length prefix.
func frameRun(lens ...int) []byte {
	var buf []byte
	for i, n := range lens {
		buf = binary.BigEndian.AppendUint32(buf, uint32(n))
		buf = append(buf, bytes.Repeat([]byte{byte(i + 1)}, n)...)
	}
	return buf
}

// TestResumeAt pins where a batch resumes after a write accepted only n
// of its bytes: at the first frame not wholly written.
func TestResumeAt(t *testing.T) {
	buf := frameRun(3, 5, 2) // frames at [0,7), [7,16), [16,22)
	for _, tc := range []struct {
		name string
		n    int
		at   int // offset the resumed suffix starts at
	}{
		{"nothing written", 0, 0},
		{"inside a length prefix", 2, 0},
		{"inside a body", 5, 0},
		{"inside the second prefix", 9, 7},
		{"on an exact boundary", 7, 7},
		{"on the last boundary", 16, 16},
		{"inside the last body", 20, 16},
		{"everything written", len(buf), len(buf)},
	} {
		got := resumeAt(buf, tc.n)
		if !bytes.Equal(got, buf[tc.at:]) || len(got) != len(buf)-tc.at {
			t.Errorf("%s: resumeAt(n=%d) starts at offset %d, want %d", tc.name, tc.n, len(buf)-len(got), tc.at)
		}
	}
}

// FuzzResumeAt checks the resume walk against any frame layout and any
// accepted byte count: the suffix starts on a frame boundary, the frames
// wholly written plus the suffix are exactly the batch, and no frame cut
// short by the write is skipped.
func FuzzResumeAt(f *testing.F) {
	f.Add([]byte{3, 5, 2}, 9)
	f.Add([]byte{0, 0, 1}, 4)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, lens []byte, n int) {
		ls := make([]int, len(lens))
		for i, l := range lens {
			ls[i] = int(l)
		}
		buf := frameRun(ls...)
		if n < 0 || n > len(buf) {
			n = len(buf)
		}
		got := resumeAt(buf, n)
		at := len(buf) - len(got)
		if !bytes.Equal(got, buf[at:]) {
			t.Fatal("resumed bytes are not a suffix of the batch")
		}
		// Walk the frame boundaries: at must be one of them, every frame
		// before it must end by n, and the frame at it must not.
		off := 0
		for _, l := range ls {
			if off == at {
				break
			}
			off += 4 + l
			if off > n {
				t.Fatalf("n=%d: frame ending at %d was skipped though cut short", n, off)
			}
		}
		if off != at {
			t.Fatalf("n=%d: resumed at %d, not a frame boundary", n, at)
		}
		if at < len(buf) && at+4+int(binary.BigEndian.Uint32(buf[at:])) <= n {
			t.Fatalf("n=%d: frame at %d was written whole but resent", n, at)
		}
	})
}
