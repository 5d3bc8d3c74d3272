package sim

import (
	"testing"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/optimize"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// searchProtocol runs the placement search on g and builds the relay
// protocol for the winner, failing the test if the search found nothing
// to improve (the differential below would then be vacuous).
func searchProtocol(t *testing.T, g *sharegraph.Graph, seed int64) *optimize.PlacementProtocol {
	t.Helper()
	res, err := optimize.Search(g, optimize.SearchOptions{Seed: seed})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if res.Entries >= res.BaseEntries {
		t.Fatalf("search found no improvement on %d base entries", res.BaseEntries)
	}
	pp, err := res.Placement.Protocol("optimized")
	if err != nil {
		t.Fatalf("placement protocol: %v", err)
	}
	return pp
}

// runSplit executes the script's first half, optionally reconfigures,
// executes the second half, and returns the canonical final state.
// OwnerWrites gives every register a single writer, so the final state
// is schedule-independent and byte-comparable across runs.
func runSplit(t *testing.T, g *sharegraph.Graph, p, reconf core.Protocol, script workload.Script, opts ...ClusterOption) string {
	t.Helper()
	c, err := NewCluster(g, p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	half := len(script) / 2
	var violations []causality.Violation
	violations = append(violations, c.RunScript(script[:half])...)
	if reconf != nil {
		if err := c.Reconfigure(reconf); err != nil {
			t.Fatalf("reconfigure: %v", err)
		}
	}
	violations = append(violations, c.RunScript(script[half:])...)
	for _, v := range violations {
		t.Errorf("violation: %v", v)
	}
	return wire.FormatSnapshots(c.StateSnapshot())
}

// reconfigureGraphs are the topologies the reconfiguration checks switch
// onto a searched placement. The random one is sparse (two holders per
// register): it has cut vertices, so the search finds relay routes
// without a bypass (278 -> 146 entries, two registers broken). Dense
// random graphs such as RandomK(12, 30, 3, 7) have none, and the search
// returns their identity placement.
func reconfigureGraphs() []struct {
	name string
	g    *sharegraph.Graph
} {
	return []struct {
		name string
		g    *sharegraph.Graph
	}{
		{"ring8", sharegraph.Ring(8)},
		{"randomk", sharegraph.RandomK(12, 16, 2, 8)},
	}
}

// TestSearchedPlacementSafe runs each searched placement under the
// deterministic runner with the oracle armed: 40 random schedules plus
// the adversarial LIFO one must all be violation-free.
func TestSearchedPlacementSafe(t *testing.T) {
	for _, tc := range reconfigureGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			pp := searchProtocol(t, tc.g, 1)
			scheds := []transport.Scheduler{transport.LIFOScheduler{}}
			for seed := int64(1); seed <= 40; seed++ {
				scheds = append(scheds, transport.NewRandom(seed))
			}
			for i, sched := range scheds {
				res, err := Run(Config{
					Graph: tc.g, Protocol: pp, Script: workload.OwnerWrites(tc.g, 300, int64(i)),
					Sched: sched, TrackFalseDeps: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Ok() {
					t.Fatalf("schedule %d (%s): %v", i, res.Scheduler, res.Violations)
				}
			}
		})
	}
}

// TestReconfigureDifferential is the tentpole acceptance check in its
// plain form: a cluster that switches onto the search's optimized
// placement mid-run must end violation-free with final state byte-equal
// to an unreconfigured run of the same script.
func TestReconfigureDifferential(t *testing.T) {
	for _, tc := range reconfigureGraphs() {
		t.Run(tc.name, func(t *testing.T) {
			p, err := core.NewEdgeIndexed(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			pp := searchProtocol(t, tc.g, 1)
			script := workload.OwnerWrites(tc.g, 400, 11)

			reconfigured := runSplit(t, tc.g, p, pp, script, WithSeed(3))
			p2, err := core.NewEdgeIndexed(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			straight := runSplit(t, tc.g, p2, nil, script, WithSeed(3))
			if reconfigured != straight {
				t.Errorf("final state diverged after reconfiguration:\n-- reconfigured --\n%s\n-- straight --\n%s",
					reconfigured, straight)
			}
		})
	}
}

// TestReconfigureMetadataShrinks pins the point of the exercise: after
// the switch the live nodes track strictly fewer timestamp entries.
func TestReconfigureMetadataShrinks(t *testing.T) {
	g := sharegraph.Ring(8)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	script := workload.OwnerWrites(g, 200, 5)
	c.RunScript(script[:100])
	before := 0
	for r := range c.space.nodes {
		before += c.space.nodes[r].MetadataEntries()
	}
	if err := c.Reconfigure(searchProtocol(t, g, 1)); err != nil {
		t.Fatal(err)
	}
	c.RunScript(script[100:])
	after := 0
	for r := range c.space.nodes {
		after += c.space.nodes[r].MetadataEntries()
	}
	if after >= before {
		t.Errorf("tracked entries did not shrink: %d -> %d", before, after)
	}
}

// TestReconfigureChaosDifferential runs the same differential with the
// epoch fence dropped into the middle of a chaos run: ambient
// loss/duplication, a partition, and a crash/restart all before the
// switch. Zero violations and byte-equal final state remain the bar.
func TestReconfigureChaosDifferential(t *testing.T) {
	g := sharegraph.Ring(8)
	script := workload.OwnerWrites(g, 360, 13)
	plan := rt.FaultPlan{Seed: 5, Default: rt.EdgeFault{Drop: 0.05, Dup: 0.05}}

	run := func(reconf core.Protocol) string {
		p, err := core.NewEdgeIndexed(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunChaos(ChaosConfig{
			Graph: g, Protocol: p, Script: script, Plan: plan,
			Partition: true, PartitionA: 1, PartitionB: 2,
			Crash: true, CrashReplica: 4,
			Reconfigure: reconf,
			Opts:        []ClusterOption{WithSeed(9)},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Errorf("violation: %v", v)
		}
		return wire.FormatSnapshots(res.FinalState)
	}

	reconfigured := run(searchProtocol(t, g, 1))
	straight := run(nil)
	if reconfigured != straight {
		t.Errorf("chaos final state diverged after reconfiguration:\n-- reconfigured --\n%s\n-- straight --\n%s",
			reconfigured, straight)
	}
}

// TestReconfigureRejectsDown: the fence must refuse to switch epochs
// while a replica is crashed (its state would be lost).
func TestReconfigureRejectsDown(t *testing.T) {
	g := sharegraph.Ring(6)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, p, WithChaos(rt.FaultPlan{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Reconfigure(searchProtocol(t, g, 1)); err == nil {
		t.Error("Reconfigure succeeded with replica 2 down")
	}
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Reconfigure(searchProtocol(t, g, 1)); err != nil {
		t.Errorf("Reconfigure failed after restart: %v", err)
	}
}

// TestRingBreakChaosSoak soaks the Figure 13 relay protocol under the
// ambient fault lottery plus a partition across the relay path — the
// coverage the fault layer previously never exercised.
func TestRingBreakChaosSoak(t *testing.T) {
	n := 8
	p, err := optimize.BreakRing(n)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Base()
	script := workload.OwnerWrites(g, 400, 17)
	var c *Cluster
	res, err := RunChaos(ChaosConfig{
		Graph: g, Protocol: p, Script: script,
		Plan:      rt.FaultPlan{Seed: 3, Default: rt.EdgeFault{Drop: 0.08, Dup: 0.08}},
		Partition: true, PartitionA: 3, PartitionB: 4,
		Opts:      []ClusterOption{WithSeed(21)},
		OnCluster: func(cl *Cluster) { c = cl },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	// Injected duplicates park dead, as under every protocol, and stay
	// counted in PendingTotal; what must be empty is the live buffer. The
	// cluster is closed by now, so its nodes are quiescent and safe to read.
	live := 0
	for _, node := range c.space.nodes {
		live += node.(core.LivePendingCounter).LivePending()
	}
	if live != 0 {
		t.Errorf("%d live updates stuck pending after heal+quiesce (%d buffered in all)", live, res.PendingTotal)
	}

	// Differential: the chaos run's final state must match a fault-free
	// run of the same single-writer script.
	p2, err := optimize.BreakRing(n)
	if err != nil {
		t.Fatal(err)
	}
	clean := runSplit(t, g, p2, nil, script, WithSeed(21))
	if got := wire.FormatSnapshots(res.FinalState); got != clean {
		t.Errorf("chaos run diverged from fault-free run:\n-- chaos --\n%s\n-- clean --\n%s", got, clean)
	}
}

// TestRingBreakCrashRestart crashes a relay-interior replica mid-run and
// checks checkpoint/log-replay recovery through the relay path.
func TestRingBreakCrashRestart(t *testing.T) {
	n := 8
	p, err := optimize.BreakRing(n)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Base()
	script := workload.OwnerWrites(g, 400, 19)
	res, err := RunChaos(ChaosConfig{
		Graph: g, Protocol: p, Script: script,
		Plan:  rt.FaultPlan{Seed: 7, Default: rt.EdgeFault{Dup: 0.05}},
		Crash: true, CrashReplica: 4, // interior relay hop
		Opts: []ClusterOption{WithSeed(29)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	p2, err := optimize.BreakRing(n)
	if err != nil {
		t.Fatal(err)
	}
	clean := runSplit(t, g, p2, nil, script, WithSeed(29))
	if got := wire.FormatSnapshots(res.FinalState); got != clean {
		t.Errorf("crash/restart run diverged from fault-free run:\n-- chaos --\n%s\n-- clean --\n%s", got, clean)
	}
}
