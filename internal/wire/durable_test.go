package wire

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/workload"
)

// startLoggedCluster is startCluster with a durable log per replica
// (node<i>.log under dir), without the Cleanup hook — crash-recovery
// tests close and resurrect nodes themselves.
func startLoggedCluster(t *testing.T, cfg ClusterConfig, dir string) []*Node {
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
		n, err := NewNode(cfg, i, proto, NodeOptions{
			Logf:    t.Logf,
			LogPath: filepath.Join(dir, "node"+string(rune('0'+i))+".log"),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		go n.Serve()
	}
	return nodes
}

// TestDurableLogRestartRestoresStateAndCounters pins the log-replay
// contract in process: run half a script, remember the victim's state
// and counters, close the victim abruptly (its transport queues are
// drained by the quiesce, like the kill -9 choreography), rebuild it
// from the log alone, and require identical state AND identical
// sent/recv/applied counters — the counters are what keep the
// client-side quiesce sums sound across a restart.
func TestDurableLogRestartRestoresStateAndCounters(t *testing.T) {
	g := sharegraph.Ring(5)
	script := workload.OwnerWrites(g, 300, 19)
	cfg := loopbackConfig(t, g, "edge-indexed")
	dir := t.TempDir()
	nodes := startLoggedCluster(t, cfg, dir)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	client, err := Dial(cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RunScript(script[:150]); err != nil {
		t.Fatal(err)
	}
	if err := client.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	const victim = 2
	wantState := nodes[victim].State()
	wantStatus := nodes[victim].Status()
	// Close is the in-process stand-in for SIGKILL here: the cluster is
	// quiescent, so the volatile pieces Close drains were empty anyway
	// and the log is the only carrier of state into the new node.
	nodes[victim].Close()

	cg, err := cfg.Graph()
	if err != nil {
		t.Fatal(err)
	}
	proto, err := cli.Protocol(cfg.Protocol, cg)
	if err != nil {
		t.Fatal(err)
	}
	reborn, err := NewNode(cfg, victim, proto, NodeOptions{
		Logf:    t.Logf,
		LogPath: filepath.Join(dir, "node2.log"),
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes[victim] = reborn
	go reborn.Serve()

	gotState := reborn.State()
	if len(gotState) != len(wantState) {
		t.Fatalf("replayed state has %d registers, want %d", len(gotState), len(wantState))
	}
	for x, v := range wantState {
		if gotState[x] != v {
			t.Errorf("register %s = %v after replay, want %v", x, gotState[x], v)
		}
	}
	got := reborn.Status()
	if got.Applied != wantStatus.Applied || got.SentUpd != wantStatus.SentUpd || got.RecvUpd != wantStatus.RecvUpd {
		t.Errorf("replayed counters %+v, want %+v", got, wantStatus)
	}

	// The resurrected node must be a full participant: finish the script
	// and the cluster-wide quiesce must still converge (it cannot if the
	// counters drifted).
	client2, err := Dial(cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	if err := client2.RunScript(script[150:]); err != nil {
		t.Fatal(err)
	}
	if err := client2.Quiesce(30 * time.Second); err != nil {
		t.Fatalf("quiesce after restart: %v", err)
	}
}

// TestDurableLogTornTail pins torn-tail truncation: a log ending in a
// partial frame (crash mid-append) must replay its complete prefix and
// discard the tail, and the node must then append cleanly after it.
func TestDurableLogTornTail(t *testing.T) {
	g := sharegraph.Ring(3)
	cfg := loopbackConfig(t, g, "edge-indexed")
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.log")

	// A valid one-write log plus a torn frame: header promises more
	// bytes than exist.
	reg := g.Stores(0).Sorted()[0]
	frame := AppendWrite(nil, reg, 42)
	torn := append(append([]byte(nil), frame...), frame[:7]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	cg, err := cfg.Graph()
	if err != nil {
		t.Fatal(err)
	}
	proto, err := cli.Protocol(cfg.Protocol, cg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(cfg, 0, proto, NodeOptions{Logf: t.Logf, LogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if v, ok := n.State()[reg]; !ok || v != 42 {
		t.Errorf("state[%s] = %v (ok=%v) after torn-tail replay, want 42", reg, v, ok)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(frame)) {
		t.Errorf("log is %d bytes after truncation, want %d", fi.Size(), len(frame))
	}
}

// TestDurableLogAppendFailureAppliesNothing pins log-before-apply when
// the append fails: with the node's log file closed under it, a client
// Write and a genuine Update are each refused — the link is closed and
// nothing is applied, so state, Applied and RecvUpd stay as they were.
func TestDurableLogAppendFailureAppliesNothing(t *testing.T) {
	g := sharegraph.Ring(3)
	cfg := loopbackConfig(t, g, "edge-indexed")
	proto, err := cli.Protocol(cfg.Protocol, g)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(cfg, 0, proto, NodeOptions{Logf: t.Logf, LogPath: filepath.Join(t.TempDir(), "node0.log")})
	if err != nil {
		t.Fatal(err)
	}
	go n.Serve()
	t.Cleanup(n.Close)
	src, err := proto.NewNodes()
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.CollectWrite(src[1], "ring0", 7, 0)
	if err != nil || len(out) != 1 || out[0].To != 0 {
		t.Fatalf("write at 1: %v %v", err, out)
	}
	wantState, wantStatus := n.State(), n.Status()
	n.logF.Close()

	for _, tc := range []struct {
		name   string
		frames [][]byte
	}{
		{"client write", [][]byte{AppendHello(nil, ClientID), AppendWrite(nil, "ring0", 42)}},
		{"update from 1", [][]byte{AppendHello(nil, 1), AppendUpdate(nil, out[0])}},
	} {
		conn, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range tc.frames {
			if _, err := conn.Write(f); err != nil {
				t.Fatal(err)
			}
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("%s: link not closed (read: %v)", tc.name, err)
		}
		conn.Close()
		if got := n.Status(); got.Applied != wantStatus.Applied || got.RecvUpd != wantStatus.RecvUpd {
			t.Errorf("%s: status %+v, want %+v", tc.name, got, wantStatus)
		}
		if got := n.State(); !reflect.DeepEqual(got, wantState) {
			t.Errorf("%s: state %v, want %v", tc.name, got, wantState)
		}
	}
}
