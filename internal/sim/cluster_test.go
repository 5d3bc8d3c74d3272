package sim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/optimize"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
	"repro/internal/workload"
)

// TestClusterEdgeIndexedConcurrent runs the live goroutine runtime with
// concurrent writers on several topologies and audits with the oracle —
// the concurrency-hardening counterpart of the deterministic sweeps.
func TestClusterEdgeIndexedConcurrent(t *testing.T) {
	graphs := map[string]*sharegraph.Graph{
		"fig5":    sharegraph.Fig5Example(),
		"ring5":   sharegraph.Ring(5),
		"clique4": sharegraph.PairClique(4),
	}
	for name, g := range graphs {
		c, err := NewCluster(g, edgeIndexed(t, g))
		if err != nil {
			t.Fatal(err)
		}
		script := workload.Uniform(g, 300, 42)
		violations := c.RunScript(script)
		if len(violations) != 0 {
			t.Errorf("%s: live cluster violations: %v", name, violations)
		}
		if c.PendingTotal() != 0 {
			t.Errorf("%s: %d updates stuck pending after quiescence", name, c.PendingTotal())
		}
		if c.MessagesSent() == 0 {
			t.Errorf("%s: no messages sent", name)
		}
		if c.MetaBytes() == 0 {
			t.Errorf("%s: no metadata bytes recorded", name)
		}
		c.Close()
	}
}

func TestClusterMatrixConcurrent(t *testing.T) {
	g := sharegraph.Ring(4)
	c, err := NewCluster(g, baseline.NewMatrix(g), WithMaxDelay(0))
	if err != nil {
		t.Fatal(err)
	}
	if violations := c.RunScript(workload.Uniform(g, 200, 9)); len(violations) != 0 {
		t.Errorf("matrix live cluster violations: %v", violations)
	}
	c.Close()
}

func TestClusterReadAndLifecycle(t *testing.T) {
	g := sharegraph.Fig3Example()
	c, err := NewCluster(g, edgeIndexed(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, "x", 7); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
	if v, ok := c.Read(1, "x"); !ok || v != 7 {
		t.Errorf("Read(1, x) = (%d, %v), want (7, true)", v, ok)
	}
	if _, ok := c.Read(3, "x"); ok {
		t.Error("Read of unstored register reported ok")
	}
	if err := c.Write(0, "zzz", 1); err == nil {
		t.Error("write to unstored register accepted")
	}
	if c.Tracker() == nil {
		t.Error("nil tracker")
	}
	c.Close()
	if err := c.Write(0, "x", 8); err == nil {
		t.Error("write after Close accepted")
	}
}

// TestClusterReplicaOutOfRange pins the range check on every replica
// control: a replica index outside [0,n) is an error on Write, the
// recovery controls and the partition controls, and a miss on Read —
// never an index panic or a silent cut to a phantom replica. RunChaos
// refuses such a fault target before it builds a cluster.
func TestClusterReplicaOutOfRange(t *testing.T) {
	g := sharegraph.Ring(3)
	p := edgeIndexed(t, g)
	c, err := NewCluster(g, p, WithChaos(rt.FaultPlan{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	x := g.Registers()[0]
	want := func(op string, r sharegraph.ReplicaID, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "[0,3)") {
			t.Errorf("%s(%d) = %v, want an error naming [0,3)", op, r, err)
		}
	}
	for _, r := range []sharegraph.ReplicaID{-1, 3} {
		want("Write", r, c.Write(r, x, 1))
		if _, ok := c.Read(r, x); ok {
			t.Errorf("Read(%d) reported ok", r)
		}
		want("Checkpoint", r, c.Checkpoint(r))
		want("Crash", r, c.Crash(r))
		want("Restart", r, c.Restart(r))
		want("Heal", r, c.Heal(r, 0))
		want("Partition", r, c.Partition(0, r, 0))
		want("PartitionOneWay", r, c.PartitionOneWay(r, 0, 0))
		if f := c.Faults().String(); !strings.Contains(f, "cuts=0") {
			t.Errorf("rejected partitions of %d left cuts: %s", r, f)
		}
	}

	script := workload.OwnerWrites(g, 30, 1)
	for _, cfg := range []ChaosConfig{
		{Crash: true, CrashReplica: 3},
		{Partition: true, PartitionB: 3},
	} {
		built := false
		cfg.Graph, cfg.Protocol, cfg.Script = g, p, script
		cfg.OnCluster = func(*Cluster) { built = true }
		_, err := RunChaos(cfg)
		want("RunChaos", 3, err)
		if built {
			t.Errorf("RunChaos built a cluster for fault target 3 of 3 replicas")
		}
	}
}

// TestClusterRingBreakRelay exercises message forwarding (HandleMessage
// emitting new envelopes) under live concurrency: relayed updates must
// keep the outstanding counter balanced and satisfy the oracle.
func TestClusterRingBreakRelay(t *testing.T) {
	rb, err := optimize.BreakRing(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(rb.Base(), rb)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	script := workload.SharedOnly(rb.Base(), 200, 17)
	if violations := c.RunScript(script); len(violations) != 0 {
		t.Errorf("ring-break live cluster violations: %v", violations)
	}
	if c.PendingTotal() != 0 {
		t.Errorf("%d updates stuck pending", c.PendingTotal())
	}
	// Relays must reach the far holder: write the broken register and
	// check the other end observes it.
	if err := c.Write(0, rb.Broken(), 1234); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
	if v, ok := c.Read(4, rb.Broken()); !ok || v != 1234 {
		t.Errorf("far-end read = (%d,%v), want (1234,true)", v, ok)
	}
}

// TestClusterWithoutAudit covers the pure-throughput configuration: no
// oracle, no verdicts, but deliveries and state still flow — and final
// state still matches an audited run on the same single-writer workload.
func TestClusterWithoutAudit(t *testing.T) {
	g := sharegraph.Ring(6)
	script := workload.OwnerWrites(g, 300, 13)

	audited, err := NewCluster(g, edgeIndexed(t, g), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if violations := audited.RunScript(script); len(violations) != 0 {
		t.Fatalf("audited run violations: %v", violations)
	}
	want := audited.StateSnapshot()
	audited.Close()

	c, err := NewCluster(g, edgeIndexed(t, g), WithSeed(5), WithoutAudit())
	if err != nil {
		t.Fatal(err)
	}
	if c.Tracker() != nil {
		t.Error("unaudited cluster exposes a tracker")
	}
	if violations := c.RunScript(script); violations != nil {
		t.Errorf("unaudited RunScript returned verdicts: %v", violations)
	}
	if p := c.PendingTotal(); p != 0 {
		t.Errorf("%d updates stuck pending", p)
	}
	if c.MessagesSent() == 0 {
		t.Error("no messages sent")
	}
	got := c.StateSnapshot()
	c.Close()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("unaudited final state diverges:\naudited:   %v\nunaudited: %v", want, got)
	}
}

func TestClusterQuiesceIdempotent(t *testing.T) {
	g := sharegraph.Fig3Example()
	c, err := NewCluster(g, edgeIndexed(t, g))
	if err != nil {
		t.Fatal(err)
	}
	c.Quiesce() // no traffic: returns immediately
	c.Quiesce()
	c.Close()
}

// TestClusterStressRing32 is the scale workload the goroutine-per-message
// runtime could never run: 32 replicas, 10k concurrent writes, artificial
// delivery delays holding messages in flight. The oracle must report zero
// causal violations, every update must apply (no liveness loss), and
// Close must leave no outstanding messages or workers behind.
func TestClusterStressRing32(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	g := sharegraph.Ring(32)
	before := runtime.NumGoroutine()
	c, err := NewCluster(g, edgeIndexed(t, g),
		WithWorkers(8), WithInboxCapacity(128),
		WithMaxDelay(100*time.Microsecond), WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	script := workload.Uniform(g, 10000, 7)
	violations := c.RunScript(script)
	if len(violations) != 0 {
		t.Errorf("stress run violations: %v", violations[:min(len(violations), 5)])
	}
	if p := c.PendingTotal(); p != 0 {
		t.Errorf("%d updates stuck pending after quiescence", p)
	}
	c.Close()
	if n := c.Outstanding(); n != 0 {
		t.Errorf("Close left %d outstanding messages", n)
	}
	// Workers exited before Close returned; the goroutine count is back
	// to its pre-cluster baseline (modulo unrelated runtime goroutines).
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines leaked: %d before cluster, %d after Close", before, after)
	}
}

// TestClusterBoundedGoroutines pins the worker-pool property directly:
// while thousands of messages are in flight, the goroutine count stays at
// workers + drivers + constant overhead — not O(messages).
func TestClusterBoundedGoroutines(t *testing.T) {
	g := sharegraph.Ring(16)
	const workers = 4
	before := runtime.NumGoroutine()
	c, err := NewCluster(g, edgeIndexed(t, g), WithWorkers(workers),
		WithMaxDelay(200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	script := workload.Uniform(g, 2000, 5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.RunScript(script)
	}()
	peak := 0
	for {
		select {
		case <-done:
			if peak > before+workers+g.NumReplicas()+8 {
				t.Errorf("goroutine count not bounded by pool: peak %d (baseline %d, %d workers, %d drivers)",
					peak, before, workers, g.NumReplicas())
			}
			c.Close()
			return
		default:
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestClusterBackpressureTinyInbox runs with capacity 1, forcing writers
// to block on nearly every send: the run must still drain cleanly (no
// deadlock between blocked writers and the worker pool).
func TestClusterBackpressureTinyInbox(t *testing.T) {
	g := sharegraph.Ring(5)
	c, err := NewCluster(g, edgeIndexed(t, g), WithWorkers(2), WithInboxCapacity(1))
	if err != nil {
		t.Fatal(err)
	}
	if violations := c.RunScript(workload.Uniform(g, 500, 11)); len(violations) != 0 {
		t.Errorf("backpressure run violations: %v", violations)
	}
	if p := c.PendingTotal(); p != 0 {
		t.Errorf("%d updates stuck pending", p)
	}
	c.Close()
	if n := c.Outstanding(); n != 0 {
		t.Errorf("Close left %d outstanding", n)
	}
}

// TestClusterRelayBackpressure exercises the forward-exemption path under
// a tiny inbox bound: relayed messages enqueue above capacity rather than
// deadlocking the pool.
func TestClusterRelayBackpressure(t *testing.T) {
	rb, err := optimize.BreakRing(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(rb.Base(), rb, WithWorkers(2), WithInboxCapacity(1))
	if err != nil {
		t.Fatal(err)
	}
	if violations := c.RunScript(workload.SharedOnly(rb.Base(), 200, 17)); len(violations) != 0 {
		t.Errorf("relay backpressure violations: %v", violations)
	}
	c.Close()
}
