package wire

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// loopbackConfig reserves distinct loopback ports for every replica of g
// and returns the deployment config. The reserve-then-release dance has
// an inherent race window, but loopback ports on a test host are not
// contended at that rate.
func loopbackConfig(t testing.TB, g *sharegraph.Graph, protocol string) ClusterConfig {
	t.Helper()
	cfg := ClusterConfig{Protocol: protocol, Replicas: make([]NodeAddr, g.NumReplicas())}
	lns := make([]net.Listener, len(cfg.Replicas))
	for i := range cfg.Replicas {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		cfg.Replicas[i] = NodeAddr{
			Addr:      ln.Addr().String(),
			Registers: g.Stores(sharegraph.ReplicaID(i)).Sorted(),
		}
	}
	for _, ln := range lns {
		ln.Close()
	}
	return cfg
}

// startCluster boots one wire.Node per replica and returns them serving.
func startCluster(t testing.TB, cfg ClusterConfig) []*Node {
	t.Helper()
	g, err := cfg.Graph()
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, len(cfg.Replicas))
	for i := range nodes {
		proto, err := cli.Protocol(cfg.Protocol, g)
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(cfg, i, proto, NodeOptions{Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		go func() {
			if err := n.Serve(); err != nil {
				t.Errorf("serve: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes
}

// TestLoopbackDifferentialRing8 is the tentpole acceptance test: the
// same OwnerWrites script driven through real TCP nodes on loopback and
// through the in-process sim.Cluster must converge to byte-identical
// final states (single-writer registers with pinned values make the
// final state schedule-independent, so the two runtimes cannot disagree
// without a codec or transport bug). The pooled-buffer leak check rides
// along: after a drained run every node's BytePool balance is zero.
func TestLoopbackDifferentialRing8(t *testing.T) {
	g := sharegraph.Ring(8)
	script := workload.OwnerWrites(g, 400, 11)

	// In-process reference run (audited: the oracle must stay silent).
	proto, err := cli.Protocol("edge-indexed", g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.NewCluster(g, proto)
	if err != nil {
		t.Fatal(err)
	}
	if v := ref.RunScript(script); len(v) > 0 {
		t.Fatalf("reference run: %d oracle violations, first: %v", len(v), v[0])
	}
	want := FormatSnapshots(ref.StateSnapshot())
	ref.Close()

	// Networked run over loopback TCP.
	cfg := loopbackConfig(t, g, "edge-indexed")
	nodes := startCluster(t, cfg)
	client, err := Dial(cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RunScript(script); err != nil {
		t.Fatalf("networked run: %v", err)
	}
	if err := client.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	snaps, err := client.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	got := FormatSnapshots(snaps)
	if got != want {
		t.Fatalf("final states diverge:\nnetworked:\n%s\nin-process:\n%s", got, want)
	}

	// The shutdown protocol and the pooled-buffer balance.
	if err := client.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		select {
		case <-n.ShutdownRequested():
		case <-time.After(5 * time.Second):
			t.Fatalf("replica %d never saw the shutdown request", i)
		}
	}
	client.Close()
	for i, n := range nodes {
		n.Close()
		if live := n.Pool().Live(); live != 0 {
			t.Errorf("replica %d leaks %d pooled buffers", i, live)
		}
	}
}

// TestLoopbackDifferentialProtocols runs the smaller cross-protocol
// sweep: every registered protocol must agree with its own in-process
// run on a Star topology (hub relaying exercises the Forward path).
func TestLoopbackDifferentialProtocols(t *testing.T) {
	for _, name := range []string{"edge-indexed", "matrix", "naive-vector"} {
		t.Run(name, func(t *testing.T) {
			g := sharegraph.Star(5)
			script := workload.OwnerWrites(g, 120, 3)
			proto, err := cli.Protocol(name, g)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := sim.NewCluster(g, proto)
			if err != nil {
				t.Fatal(err)
			}
			ref.RunScript(script)
			want := FormatSnapshots(ref.StateSnapshot())
			ref.Close()

			cfg := loopbackConfig(t, g, name)
			startCluster(t, cfg)
			client, err := Dial(cfg, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if err := client.RunScript(script); err != nil {
				t.Fatal(err)
			}
			if err := client.Quiesce(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			snaps, err := client.Snapshots()
			if err != nil {
				t.Fatal(err)
			}
			if got := FormatSnapshots(snaps); got != want {
				t.Fatalf("final states diverge:\nnetworked:\n%s\nin-process:\n%s", got, want)
			}
		})
	}
}

// discardServer accepts connections and discards everything — the far
// end of the encode+send hot-path measurements.
func discardServer(tb testing.TB) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, conn)
				conn.Close()
			}()
		}
	}()
	tb.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

func encodeSendCycle(tb testing.TB) (func(), *Transport, *transport.BytePool) {
	addr := discardServer(tb)
	pool := new(transport.BytePool)
	tr := NewTransport(0, []string{"x", addr}, pool, TransportOptions{QueueCap: 1 << 14})
	env := core.Envelope{
		From: 0, To: 1, Reg: "ring0", Val: 42,
		Meta: []byte{0x10, 0x03, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08},
	}
	cycle := func() {
		env.Val++
		if !tr.Send(1, AppendUpdate(pool.Get(), env)) {
			tb.Fatal("send refused")
		}
	}
	// Warm the pool, the queue slice and the connection.
	for i := 0; i < 512; i++ {
		cycle()
	}
	tr.Flush()
	return cycle, tr, pool
}

// TestWireEncodeSendAllocs pins the acceptance bound: encoding and
// sending one steady-state update costs at most one allocation per
// operation (in practice zero — the frame buffer, the queue slot and
// the writer's path are all recycled).
func TestWireEncodeSendAllocs(t *testing.T) {
	cycle, tr, _ := encodeSendCycle(t)
	avg := testing.AllocsPerRun(2000, cycle)
	tr.Flush()
	tr.Close()
	if avg > 1 {
		t.Fatalf("encode+send allocates %.2f objects/op in steady state, want <= 1", avg)
	}
}

// BenchmarkWireEncodeSend measures the hot path end to end: append-encode
// one update into a pooled buffer and hand it to the transport.
func BenchmarkWireEncodeSend(b *testing.B) {
	cycle, tr, _ := encodeSendCycle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	tr.Flush()
	tr.Close()
}

// TestNodeRejectsForeignIdentity speaks raw TCP to one replica of
// Ring(3): a link's Hello id must name a replica or the client, and an
// Update is accepted only from the replica its link said hello as. A
// rejected link is closed with nothing applied; a genuine one applies.
// Kind 7, once the Batch frame, is an unknown kind like any other.
func TestNodeRejectsForeignIdentity(t *testing.T) {
	g := sharegraph.Ring(3)
	cfg := loopbackConfig(t, g, "edge-indexed")
	proto, err := cli.Protocol(cfg.Protocol, g)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(cfg, 0, proto, NodeOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := n.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(n.Close)

	// Genuine updates for replica 0 from each neighbour: 1 shares ring0,
	// 2 shares ring2.
	src, err := proto.NewNodes()
	if err != nil {
		t.Fatal(err)
	}
	from := func(r sharegraph.ReplicaID, reg sharegraph.Register) []byte {
		out, err := core.CollectWrite(src[r], reg, 7, 0)
		if err != nil || len(out) != 1 || out[0].To != 0 {
			t.Fatalf("write at %d: %v %v", r, err, out)
		}
		return AppendUpdate(nil, out[0])
	}
	upd1, upd2 := from(1, "ring0"), from(2, "ring2")

	// send opens a link, writes the frames, and reports whether the node
	// closed it.
	send := func(frames ...[]byte) (closed bool) {
		conn, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, f := range frames {
			if _, err := conn.Write(f); err != nil {
				return true
			}
		}
		conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		_, err = conn.Read(make([]byte, 1))
		return err == io.EOF
	}

	for _, tc := range []struct {
		name   string
		frames [][]byte
	}{
		{"update from 2 on a link from 1", [][]byte{AppendHello(nil, 1), upd2}},
		{"update on a client link", [][]byte{AppendHello(nil, ClientID), upd1}},
		{"hello from 99", [][]byte{AppendHello(nil, 99)}},
		{"frame of kind 7", [][]byte{AppendHello(nil, 1), {0, 0, 0, 4, magic0, magic1, Version, 7}}},
	} {
		if !send(tc.frames...) {
			t.Errorf("%s: link not closed", tc.name)
		}
		if s := n.Status(); s.RecvUpd != 0 || s.Applied != 0 {
			t.Fatalf("%s: status %+v, want nothing received or applied", tc.name, s)
		}
	}

	if send(AppendHello(nil, 1), upd1) {
		t.Fatal("genuine link from 1 closed")
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s := n.Status()
		if s.RecvUpd == 1 && s.Applied == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("control update: status %+v, want one received and applied", s)
		}
	}
}
