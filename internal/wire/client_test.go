package wire

import (
	"bufio"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/workload"
)

// TestClientRequestDrainsBufferedWrites pins the ordering Quiesce rests
// on: a request issued right after a run of buffered writes on the same
// connection reaches the replica after every one of them, so a snapshot
// taken immediately shows the last value of each register written. A
// second goroutine polls Status on the same connection throughout, so
// the race detector sees requests racing writes and the flusher.
func TestClientRequestDrainsBufferedWrites(t *testing.T) {
	g := sharegraph.Ring(8)
	cfg := loopbackConfig(t, g, "edge-indexed")
	startCluster(t, cfg)
	client, err := Dial(cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const r = sharegraph.ReplicaID(3)
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				polled <- nil
				return
			default:
			}
			if _, err := client.Status(r); err != nil {
				polled <- err
				return
			}
		}
	}()
	regs := g.Stores(r).Sorted()
	want := make(map[sharegraph.Register]core.Value, len(regs))
	for i := 1; i <= 5000; i++ {
		reg := regs[i%len(regs)]
		if err := client.Write(r, reg, core.Value(i)); err != nil {
			t.Fatal(err)
		}
		want[reg] = core.Value(i)
	}
	close(stop)
	if err := <-polled; err != nil {
		t.Fatalf("concurrent status poll: %v", err)
	}
	got, err := client.Snapshot(r)
	if err != nil {
		t.Fatal(err)
	}
	for reg, v := range want {
		if got[reg] != v {
			t.Errorf("register %s = %d right after the writes, want %d", reg, got[reg], v)
		}
	}
}

// TestClientWriteErrorIsSticky pins the failure contract of buffered
// writes: once the replica drops the connection mid-stream, a later
// Write and a later request both report an error, and Close still
// returns promptly with the connection's flusher gone.
func TestClientWriteErrorIsSticky(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Read the hello and one write, then drop the connection.
		br := bufio.NewReader(conn)
		var buf []byte
		for i := 0; i < 2; i++ {
			if _, err := ReadFrame(br, &buf); err != nil {
				break
			}
		}
		conn.Close()
	}()
	cfg := ClusterConfig{Protocol: "edge-indexed", Replicas: []NodeAddr{{Addr: ln.Addr().String()}}}
	client, err := Dial(cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for client.Write(0, "x", 1) == nil {
		if time.Now().After(deadline) {
			t.Fatal("writes kept succeeding after the replica dropped the connection")
		}
		time.Sleep(time.Millisecond)
	}
	if err := client.Write(0, "x", 2); err == nil {
		t.Fatal("a write after a failed one succeeded: the error is not sticky")
	}
	if _, err := client.Status(0); err == nil {
		t.Fatal("Status succeeded on a failed connection")
	}
	closed := make(chan struct{})
	go func() {
		client.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	select {
	case <-client.conns[0].done:
	default:
		t.Fatal("the connection's flusher outlived Close")
	}
}

// BenchmarkClientWrite measures the deployed write path end to end: b.N
// buffered Client.Write calls against a loopback Ring(8) cluster, then
// Quiesce, so ns/op covers every write's delivery and fan-out.
func BenchmarkClientWrite(b *testing.B) {
	g := sharegraph.Ring(8)
	cfg := loopbackConfig(b, g, "edge-indexed")
	startCluster(b, cfg)
	client, err := Dial(cfg, 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ops := workload.OwnerWrites(g, 1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i%len(ops)]
		if err := client.Write(op.Replica, op.Reg, core.Value(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	if err := client.Quiesce(time.Minute); err != nil {
		b.Fatal(err)
	}
}
