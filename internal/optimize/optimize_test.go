package optimize

import (
	"testing"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestFullReplicationCompression is experiment E10: with identical stores
// on a clique, all of a source's outgoing-edge counters are equal, so the
// compressed timestamp has exactly R independent counters — the classic
// vector clock, as Section 4/5 predict.
func TestFullReplicationCompression(t *testing.T) {
	for _, r := range []int{3, 4, 5, 6} {
		g := sharegraph.FullReplication(r, 3)
		graphs := sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{})
		for i, rep := range AnalyzeAll(g, graphs) {
			if rep.Compressed != r {
				t.Errorf("R=%d replica %d: compressed = %d, want %d (vector clock)",
					r, i, rep.Compressed, r)
			}
			if rep.Entries < rep.Compressed {
				t.Errorf("R=%d replica %d: entries %d < compressed %d", r, i, rep.Entries, rep.Compressed)
			}
			if rep.Ratio() > 1 || rep.Ratio() <= 0 {
				t.Errorf("R=%d replica %d: ratio %v out of (0,1]", r, i, rep.Ratio())
			}
		}
	}
}

// TestPairCliqueNoCompression: when every edge carries a unique register,
// all counters are independent and compression saves nothing.
func TestPairCliqueNoCompression(t *testing.T) {
	g := sharegraph.PairClique(4)
	graphs := sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{})
	for i, rep := range AnalyzeAll(g, graphs) {
		if rep.Compressed != rep.Entries {
			t.Errorf("replica %d: compressed %d != entries %d on independent registers",
				i, rep.Compressed, rep.Entries)
		}
	}
}

// TestCompressionPaperExample reproduces the Section 5 example: source j
// has four outgoing edges labelled {x}, {y}, {z} and {x,y,z}; the fourth
// counter is the sum of the first three, so the rank is 3.
func TestCompressionPaperExample(t *testing.T) {
	// Replica 0 = j stores x,y,z (plus nothing else); replicas 1..3 store
	// one register each and replica 4 stores all three.
	g, err := sharegraph.New([][]sharegraph.Register{
		{"x", "y", "z"},
		{"x"},
		{"y"},
		{"z"},
		{"x", "y", "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replica 4 tracks its incident edges; edges from 0 to 1,2,3 are
	// tracked only if loops exist — analyze from source 0's perspective at
	// replica 4 using a synthetic edge set containing all four.
	edges := []sharegraph.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 0, To: 3}, {From: 0, To: 4}}
	tsg := sharegraph.NewTSGraphFromEdges(4, edges)
	rep := Analyze(g, tsg)
	if rep.Entries != 4 || rep.Compressed != 3 {
		t.Errorf("entries/compressed = %d/%d, want 4/3", rep.Entries, rep.Compressed)
	}
	if len(rep.PerSource) != 1 || rep.PerSource[0].Rank != 3 || rep.PerSource[0].Edges != 4 {
		t.Errorf("per-source = %+v", rep.PerSource)
	}
}

func TestIndicatorRank(t *testing.T) {
	cases := []struct {
		name string
		rows [][]int
		cols int
		want int
	}{
		{"empty", nil, 0, 0},
		{"identity", [][]int{{0}, {1}, {2}}, 3, 3},
		{"duplicate rows", [][]int{{0, 1}, {0, 1}}, 2, 1},
		{"sum dependency", [][]int{{0}, {1}, {2}, {0, 1, 2}}, 3, 3},
		{"zero row", [][]int{{}}, 2, 0},
		{"overlap chain", [][]int{{0, 1}, {1, 2}, {0, 2}}, 3, 3},
	}
	for _, tc := range cases {
		if got := indicatorRank(tc.rows, tc.cols); got != tc.want {
			t.Errorf("%s: rank = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestDummyPlanRingShortcut is experiment E12: planting dummies across a
// ring adds chords to the effective share graph; the protocol stays
// correct (oracle-audited) while messages increase and dummy deliveries
// appear.
func TestDummyPlanRingShortcut(t *testing.T) {
	g := sharegraph.Ring(6)
	plan := NewDummyPlan(g)
	// Plant a dummy copy of ring0 (shared 0–1) on every other replica:
	// every replica now neighbours both holders of ring0.
	for r := 2; r < 6; r++ {
		if err := plan.Add("ring0", sharegraph.ReplicaID(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := plan.Add("ring0", 0); err == nil {
		t.Error("dummy accepted at genuine holder")
	}
	if err := plan.Add("ring0", 2); err != nil {
		t.Errorf("idempotent add failed: %v", err)
	}
	if plan.DummyCount() != 4 {
		t.Errorf("DummyCount = %d", plan.DummyCount())
	}
	if regs := plan.DummyRegisters(); len(regs) != 1 || regs[0] != "ring0" {
		t.Errorf("DummyRegisters = %v", regs)
	}

	p, err := plan.Protocol("dummy-ring")
	if err != nil {
		t.Fatal(err)
	}
	script := workload.SharedOnly(g, 120, 5)
	for seed := int64(0); seed < 5; seed++ {
		res, err := sim.Run(sim.Config{
			Graph: g, Protocol: p, Script: script,
			Sched: transport.NewRandom(seed), TrackFalseDeps: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok() {
			t.Fatalf("seed %d: dummy protocol violated consistency: %v", seed, res.Violations)
		}
		if res.MetaOnlyMessages == 0 {
			t.Error("no metadata-only messages despite dummies")
		}
	}
}

// TestFullEmulationVectorSize: the full-emulation plan compresses every
// replica's timestamp to exactly R counters.
func TestFullEmulationVectorSize(t *testing.T) {
	g := sharegraph.Ring(5)
	plan := FullEmulationPlan(g)
	eff, err := plan.EffectiveGraph()
	if err != nil {
		t.Fatal(err)
	}
	graphs := sharegraph.BuildAllTSGraphs(eff, sharegraph.LoopOptions{})
	for i, rep := range AnalyzeAll(eff, graphs) {
		if rep.Compressed != 5 {
			t.Errorf("replica %d: compressed = %d, want R = 5", i, rep.Compressed)
		}
	}
	// And the protocol over it remains consistent.
	p, err := plan.Protocol("full-emulation")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Graph: g, Protocol: p, Script: workload.SharedOnly(g, 80, 9),
		Sched: transport.NewRandom(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("full emulation violated consistency: %v", res.Violations)
	}
}

// TestRingBreak is experiment E13 (Figure 13): after breaking the ring,
// per-replica metadata drops from 2n to ≤4 entries, the relayed register
// still satisfies causal consistency, and each relayed write costs n−1
// messages instead of 1.
func TestRingBreak(t *testing.T) {
	const n = 6
	rb, err := BreakRing(n)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Name() != "ring-break" {
		t.Error("bad name")
	}
	if rb.Broken() != "ring5" {
		t.Errorf("broken = %q", rb.Broken())
	}
	nodes, err := rb.NewNodes()
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		if node.MetadataEntries() > 4 {
			t.Errorf("replica %d: %d entries, want <= 4 (ring would need %d)",
				i, node.MetadataEntries(), 2*n)
		}
	}

	// Relay correctness and cost: write the broken register at replica 0,
	// deliver hops in order, count messages until replica n−1 applies.
	tracker := causality.NewTracker(rb.Base())
	id := tracker.OnIssue(0, rb.Broken())
	envs, err := core.CollectWrite(nodes[0], rb.Broken(), 77, id)
	if err != nil {
		t.Fatal(err)
	}
	hops := 0
	for len(envs) > 0 {
		env := envs[0]
		envs = envs[1:]
		hops++
		applied, fwd := core.CollectMessage(nodes[env.To], env)
		for _, a := range applied {
			tracker.OnApply(env.To, a.OracleID)
		}
		envs = append(envs, fwd...)
	}
	if hops != n-1 {
		t.Errorf("relay hops = %d, want n-1 = %d", hops, n-1)
	}
	if v, ok := nodes[n-1].Read(rb.Broken()); !ok || v != 77 {
		t.Errorf("far end read = (%d,%v), want (77,true)", v, ok)
	}
	if vs := tracker.CheckLiveness(); len(vs) != 0 {
		t.Errorf("liveness violations: %v", vs)
	}
	if !tracker.Ok() {
		t.Errorf("violations: %v", tracker.Violations())
	}
}

// TestRingBreakSweep: the broken-ring protocol passes the oracle across
// random schedules, including writes from both ends of the broken edge and
// normal ring traffic.
func TestRingBreakSweep(t *testing.T) {
	const n = 5
	rb, err := BreakRing(n)
	if err != nil {
		t.Fatal(err)
	}
	script := workload.SharedOnly(rb.Base(), 100, 13)
	for seed := int64(0); seed < 8; seed++ {
		res, err := sim.Run(sim.Config{
			Graph: rb.Base(), Protocol: rb, Script: script,
			Sched: transport.NewRandom(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok() {
			t.Fatalf("seed %d: %s\n%v", seed, res.Summary(), res.Violations)
		}
	}
}

func TestRingBreakValidation(t *testing.T) {
	if _, err := BreakRing(2); err == nil {
		t.Error("BreakRing(2) accepted")
	}
	rb, err := BreakRing(4)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := rb.NewNodes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.CollectWrite(nodes[1], rb.Broken(), 1, 0); err == nil {
		t.Error("write of broken register at non-holder accepted")
	}
	if _, ok := nodes[1].Read(rb.Broken()); ok {
		t.Error("non-holder read of broken register ok")
	}
	if _, ok := nodes[0].Read(rb.Broken()); !ok {
		t.Error("holder read of broken register failed")
	}
	if _, err := core.CollectWrite(nodes[0], hopRegister(rb.Broken(), 0), 1, 0); err == nil {
		t.Error("client write to a hop register accepted")
	}
}

// TestTruncationUnsafeUnderAdversary is experiment E16: capping loop
// tracking below a ring's circumference drops the counters that guard
// long dependency chains; an adversarial schedule then violates safety,
// while the exact graphs stay clean on the same schedule.
func TestTruncationUnsafeUnderAdversary(t *testing.T) {
	g := sharegraph.Ring(5) // loops need 5 vertices; cap at 3 hops
	trunc, graphs, err := TruncatedProtocol(g, 3, "edge-indexed-l3")
	if err != nil {
		t.Fatal(err)
	}
	for i, tg := range graphs {
		if len(tg.NonIncidentEdges()) != 0 {
			t.Errorf("replica %d still tracks loop edges at l=3 on a 5-ring", i)
		}
	}
	// Stage the Theorem 8 Case 3 chain around the full ring: u0 by replica
	// 1 on ring0 (to replica 0, delayed); then a dependent chain
	// u1 ↪ u2 ↪ u3 ↪ u4 travels 1→2→3→4→0. Delivering u4 at replica 0
	// before u0 violates safety, and the truncated graphs lack the loop
	// counter that would block it.
	stage := func(p core.Protocol) *causality.Tracker {
		nodes, err := p.NewNodes()
		if err != nil {
			t.Fatal(err)
		}
		tracker := causality.NewTracker(g)
		write := func(r sharegraph.ReplicaID, x sharegraph.Register) []core.Envelope {
			id := tracker.OnIssue(r, x)
			envs, err := core.CollectWrite(nodes[r], x, 1, id)
			if err != nil {
				t.Fatalf("write %q at %d: %v", x, r, err)
			}
			return envs
		}
		deliver := func(envs []core.Envelope, to sharegraph.ReplicaID) {
			t.Helper()
			for _, e := range envs {
				if e.To != to {
					continue
				}
				applied, fwd := core.CollectMessage(nodes[to], e)
				for _, a := range applied {
					tracker.OnApply(to, a.OracleID)
				}
				if len(fwd) != 0 {
					t.Fatal("unexpected forwarding")
				}
				return
			}
			t.Fatalf("no message for replica %d", to)
		}
		u0 := write(1, "ring0") // to replica 0, held back
		u1 := write(1, "ring1")
		deliver(u1, 2)
		u2 := write(2, "ring2")
		deliver(u2, 3)
		u3 := write(3, "ring3")
		deliver(u3, 4)
		u4 := write(4, "ring4") // to replica 0
		deliver(u4, 0)          // adversarial: arrives before u0
		deliver(u0, 0)
		return tracker
	}
	if tr := stage(trunc); tr.Ok() {
		t.Error("truncated protocol survived the staged ring chain; expected a safety violation")
	}
	// The exact protocol blocks u4 until u0 arrives on the same schedule.
	exactProto, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	if tr := stage(exactProto); !tr.Ok() {
		t.Errorf("exact protocol violated consistency: %v", tr.Violations())
	}
	script := workload.SharedOnly(g, 60, 21)

	// A bound covering the full circumference is exact and safe.
	full, graphs5, err := TruncatedProtocol(g, 4, "edge-indexed-l4")
	if err != nil {
		t.Fatal(err)
	}
	exact := sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{})
	for i := range graphs5 {
		if graphs5[i].Len() != exact[i].Len() {
			t.Errorf("replica %d: l=4 graphs differ from exact on a 5-ring", i)
		}
	}
	res, err := sim.Run(sim.Config{
		Graph: g, Protocol: full, Script: script, Sched: transport.NewRandom(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Errorf("full-bound protocol violated consistency: %v", res.Violations)
	}

	if _, _, err := TruncatedProtocol(g, 0, "bad"); err == nil {
		t.Error("hop bound 0 accepted")
	}
	tr, ex := TruncationSavings(g, 3)
	if tr >= ex {
		t.Errorf("truncation saved nothing: %d vs %d", tr, ex)
	}
}

// TestTruncationSafeUnderLooseSynchrony is the positive half of the
// Appendix D claim: when single-hop messages are never overtaken by
// multi-hop chains — modelled by globally-FIFO delivery — the truncated
// protocol remains causally consistent, because the dependency chain that
// defeats it needs a long path to outrun one hop.
func TestTruncationSafeUnderLooseSynchrony(t *testing.T) {
	for _, n := range []int{5, 6} {
		g := sharegraph.Ring(n)
		trunc, _, err := TruncatedProtocol(g, 3, "edge-indexed-l3")
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2, 3} {
			script := workload.SharedOnly(g, 200, seed)
			res, err := sim.Run(sim.Config{
				Graph: g, Protocol: trunc, Script: script,
				Sched: transport.FIFOScheduler{}, TrackFalseDeps: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Ok() {
				t.Errorf("ring %d seed %d: truncated protocol failed under FIFO delivery: %v",
					n, seed, res.Violations)
			}
		}
	}
}

// TestPerRegisterRefinement: the Appendix D per-register counting scheme
// always needs at least as many counters as the rank basis (it spans the
// same space with unit vectors), and on the paper's {x},{y},{z},{x,y,z}
// example it coincides with the rank.
func TestPerRegisterRefinement(t *testing.T) {
	g, err := sharegraph.New([][]sharegraph.Register{
		{"x", "y", "z"}, {"x"}, {"y"}, {"z"}, {"x", "y", "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	edges := []sharegraph.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 0, To: 3}, {From: 0, To: 4}}
	rep := Analyze(g, sharegraph.NewTSGraphFromEdges(4, edges))
	if rep.RegisterLevel != 3 || rep.PerSource[0].Registers != 3 {
		t.Errorf("register-level counters = %d, want 3", rep.RegisterLevel)
	}
	// Register-level ≥ rank on every topology.
	for _, g2 := range []*sharegraph.Graph{sharegraph.Ring(6), sharegraph.FullReplication(4, 3), sharegraph.RandomK(7, 20, 3, 8)} {
		for _, r := range AnalyzeAll(g2, sharegraph.BuildAllTSGraphs(g2, sharegraph.LoopOptions{})) {
			if r.RegisterLevel < r.Compressed {
				t.Errorf("replica %d: register-level %d below rank %d", r.Replica, r.RegisterLevel, r.Compressed)
			}
		}
	}
}

// TestRingBreakLatency quantifies the Figure 13 trade-off's other side:
// relayed updates take longer end to end. Under FIFO delivery the broken
// ring's average send→apply delay strictly exceeds the plain ring's.
func TestRingBreakLatency(t *testing.T) {
	const n = 6
	g := sharegraph.Ring(n)
	plain, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := BreakRing(n)
	if err != nil {
		t.Fatal(err)
	}
	// Workload of only broken-register writes isolates the relay path.
	script := make(workload.Script, 20)
	for i := range script {
		script[i] = workload.Op{Replica: 0, Reg: rb.Broken()}
	}
	var delays [2]float64
	for pi, p := range []core.Protocol{plain, rb} {
		res, err := sim.Run(sim.Config{Graph: g, Protocol: p, Script: script, Sched: transport.FIFOScheduler{}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok() {
			t.Fatalf("%s: %v", p.Name(), res.Violations)
		}
		delays[pi] = res.AvgDeliveryDelay()
		if res.DeliveryCount == 0 {
			t.Fatalf("%s: no deliveries measured", p.Name())
		}
	}
	if delays[1] <= delays[0] {
		t.Errorf("broken-ring delay %.1f not above plain-ring delay %.1f", delays[1], delays[0])
	}
}

func TestOptimizeAccessors(t *testing.T) {
	rb, err := BreakRing(4)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Line().NumReplicas() != 4 || rb.Base().NumReplicas() != 4 {
		t.Error("graph accessors wrong")
	}
	nodes, err := rb.NewNodes()
	if err != nil {
		t.Fatal(err)
	}
	if nodes[2].ID() != 2 {
		t.Error("bad relay node id")
	}
	if ids := nodes[2].PendingOracleIDs(); len(ids) != 0 {
		t.Errorf("fresh node has pending ids %v", ids)
	}
	// Corrupt metadata dropped by the relay node.
	if applied, fwd := core.CollectMessage(nodes[1], core.Envelope{From: 0, To: 1, Reg: "__relay0", Meta: []byte{0xff}}); len(applied)+len(fwd) != 0 {
		t.Error("corrupt relay message processed")
	}
	// Report totals.
	g := sharegraph.FullReplication(3, 2)
	reports := AnalyzeAll(g, sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{}))
	if TotalEntries(reports) <= 0 || TotalCompressed(reports) != 9 {
		t.Errorf("totals = %d/%d", TotalEntries(reports), TotalCompressed(reports))
	}
	if (Report{}).Ratio() != 1 {
		t.Error("empty ratio should be 1")
	}
}
