package prcc

import (
	"testing"
	"time"
)

// TestClusterChaosFacade exercises the public fault-injection surface on
// a manually driven cluster: arming chaos, partition/heal, checkpoint,
// crash/restart with state transfer and fault counters.
func TestClusterChaosFacade(t *testing.T) {
	sys := fig3System(t)
	cluster, err := sys.ClusterWith(ClusterOptions{
		Chaos: &FaultPlan{Seed: 5, Default: EdgeFault{Drop: 0.05}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if err := cluster.Partition(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Write(0, "x", 7); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Heal(0, 2); err != nil {
		t.Fatal(err)
	}

	if err := cluster.Checkpoint(3); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Write(3, "z", 9); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Crash(3); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Write(3, "z", 10); err == nil {
		t.Error("write at crashed replica accepted")
	}
	if err := cluster.Restart(3); err != nil {
		t.Fatal(err)
	}
	cluster.Sync()
	if v, ok := cluster.Read(3, "z"); !ok || v != 9 {
		t.Errorf("Read(3,z) after restart = (%d,%v), want (9,true)", v, ok)
	}
	if err := cluster.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}

	if err := cluster.Crash(9); err == nil {
		t.Error("out-of-range crash accepted")
	}
	if err := cluster.Partition(0, 99, 0); err == nil {
		t.Error("out-of-range partition accepted")
	}
	if err := cluster.HealAll(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterChaosDisarmed pins the error contract of the chaos methods
// on a cluster built without ClusterOptions.Chaos.
func TestClusterChaosDisarmed(t *testing.T) {
	sys := fig3System(t)
	cluster, err := sys.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Partition(0, 1, 0); err == nil {
		t.Error("Partition without chaos accepted")
	}
	if err := cluster.Crash(1); err == nil {
		t.Error("Crash without chaos accepted")
	}
	if d, u := cluster.FaultStats(); d != 0 || u != 0 {
		t.Errorf("FaultStats = (%d,%d) without chaos", d, u)
	}
}

// TestLiveClientServerChaos pins that the client-server deployment
// honours ClusterOptions.Chaos: its inter-replica links lose and
// duplicate updates under the plan, and the audit still comes back clean
// once the deployment quiesces.
func TestLiveClientServerChaos(t *testing.T) {
	cs, err := NewClientServer(
		[][]Register{{"a", "b"}, {"a", "b"}, {"b"}},
		[][]ReplicaID{{0}, {1, 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	live := cs.LiveWith(ClusterOptions{
		Chaos:   &FaultPlan{Seed: 3, Default: EdgeFault{Drop: 0.5, Dup: 0.5}},
		Metrics: true,
	})
	defer live.Close()
	clients := []*LiveClient{live.Client(0), live.Client(1)}
	regs := []Register{"a", "b"}
	for k := 0; k < 200; k++ {
		if err := clients[k%2].Write(regs[k/2%2], Value(k+1)); err != nil {
			t.Fatal(err)
		}
	}
	live.Sync()
	m := live.Metrics()
	if m.Dropped == 0 || m.Duped == 0 {
		t.Errorf("chaos plan ignored: %d updates, %d dropped, %d duped", m.Updates, m.Dropped, m.Duped)
	}
	if err := live.Check(); err != nil {
		t.Error(err)
	}
}

// TestRunChaosFacade runs the orchestrated three-phase chaos workload —
// ambient loss and duplication, a healed partition, a crash recovered by
// state transfer — and requires the oracle's verdict to be clean.
func TestRunChaosFacade(t *testing.T) {
	sys := fig3System(t)
	rep, err := sys.RunChaos(ChaosOptions{
		Ops:       600,
		Seed:      17,
		Plan:      FaultPlan{Default: EdgeFault{Drop: 0.02, Dup: 0.02}},
		Partition: true, PartitionA: 0, PartitionB: 2,
		PartitionHeal: time.Millisecond,
		Crash:         true, CrashReplica: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("chaos run not Ok: %v", rep.Violations)
	}
	if rep.Messages == 0 {
		t.Error("no messages sent")
	}
	if rep.Dropped == 0 && rep.Duped == 0 {
		t.Error("fault lottery injected nothing at loss=dup=0.02")
	}

	if _, err := sys.RunChaos(ChaosOptions{Crash: true, CrashReplica: 9}); err == nil {
		t.Error("out-of-range crash replica accepted")
	}
	if _, err := sys.RunChaos(ChaosOptions{Partition: true, PartitionB: -1}); err == nil {
		t.Error("out-of-range partition replica accepted")
	}
}
