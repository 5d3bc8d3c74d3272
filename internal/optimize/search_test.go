package optimize

import (
	"testing"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/sharegraph"
)

// TestSearchRingFindsLine checks the acceptance criterion on rings: the
// search must strictly beat the base ring's 2n² total entries, and land
// within 2× of the cycle lower bound per replica. Breaking one register
// turns the ring into a line (4n−4 total ≤ 2·(2n) always), so a single
// move suffices — the search just has to find it.
func TestSearchRingFindsLine(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		g := sharegraph.Ring(n)
		res, err := Search(g, SearchOptions{Seed: 1})
		if err != nil {
			t.Fatalf("Ring(%d): %v", n, err)
		}
		if res.BaseEntries != 2*n*n {
			t.Fatalf("Ring(%d): base entries = %d, want %d", n, res.BaseEntries, 2*n*n)
		}
		if res.Entries >= res.BaseEntries {
			t.Errorf("Ring(%d): search found no improvement (%d entries)", n, res.Entries)
		}
		// Per-replica tracked entries within 2× of the cycle closed form.
		limit := 2 * lowerbound.CycleClosedForm(n)
		for _, tsg := range sharegraph.BuildAllTSGraphs(res.Effective, sharegraph.LoopOptions{}) {
			if tsg.Len() > limit {
				t.Errorf("Ring(%d): replica %d tracks %d entries, want <= %d", n, tsg.Owner, tsg.Len(), limit)
			}
		}
		if err := res.Placement.Validate(); err != nil {
			t.Errorf("Ring(%d): winning placement invalid: %v", n, err)
		}
	}
}

// TestSearchRingBound verifies, on a small ring where the Section 4
// family is enumerable, that the optimized placement's per-replica
// entries match the lower-bound exponent (the tightness claim carries
// over to the line graph the break produces).
func TestSearchRingBound(t *testing.T) {
	res, err := Search(sharegraph.Ring(5), SearchOptions{Seed: 1, CheckBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bounds) == 0 {
		t.Fatal("CheckBound produced no bounds")
	}
	if !res.Tight() {
		for _, b := range res.Bounds {
			t.Logf("%s", b.String())
		}
		t.Error("optimized placement not tight against the Section 4 bound")
	}
}

// TestSearchRandomKImproves checks the search on random topologies. On a
// sparse one (two holders per register) it must strictly reduce the
// total tracked entries with a placement that validates. On the dense
// RandomK(32, 96, 3) no relay route avoids a bypass, so every break is
// unsafe and the search must return the identity placement unchanged.
func TestSearchRandomKImproves(t *testing.T) {
	sparse := sharegraph.RandomK(12, 16, 2, 8)
	res, err := Search(sparse, SearchOptions{Seed: 7, Restarts: 1, MaxEvals: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries >= res.BaseEntries {
		t.Errorf("RandomK(12,16,2): no improvement (base %d, got %d in %d evals)",
			res.BaseEntries, res.Entries, res.Evals)
	}
	if err := res.Placement.Validate(); err != nil {
		t.Errorf("winning placement invalid: %v", err)
	}
	t.Logf("RandomK(12,16,2): %d -> %d entries (%d broken, %d evals)",
		res.BaseEntries, res.Entries, len(res.Placement.Broken), res.Evals)

	dense := sharegraph.RandomK(32, 96, 3, 7)
	res, err = Search(dense, SearchOptions{Seed: 7, Restarts: 1, MaxEvals: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placement.Broken) != 0 || res.Entries != res.BaseEntries {
		t.Errorf("RandomK(32,96,3): search broke %v (%d -> %d entries); every route there has a bypass",
			res.Placement.BrokenRegisters(), res.BaseEntries, res.Entries)
	}
}

// TestSearchDeterministic: same seed, same graph, same result.
func TestSearchDeterministic(t *testing.T) {
	g := sharegraph.RandomK(16, 40, 3, 3)
	a, err := Search(g, SearchOptions{Seed: 42, Restarts: 2, MaxEvals: 24})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(g, SearchOptions{Seed: 42, Restarts: 2, MaxEvals: 24})
	if err != nil {
		t.Fatal(err)
	}
	if a.Entries != b.Entries || a.Evals != b.Evals || len(a.Placement.Broken) != len(b.Placement.Broken) {
		t.Errorf("same seed diverged: (%d entries, %d evals, %d broken) vs (%d, %d, %d)",
			a.Entries, a.Evals, len(a.Placement.Broken), b.Entries, b.Evals, len(b.Placement.Broken))
	}
	for x, ra := range a.Placement.Broken {
		rb, ok := b.Placement.Broken[x]
		if !ok || len(ra) != len(rb) {
			t.Errorf("broken set diverged at %q", x)
		}
	}
}

// TestSearchEdgeWeightSteering: with one ring register's edge priced far
// above the rest, the weighted search must break that register (its
// cycle entries cost the most), while the placement stays valid.
func TestSearchEdgeWeightSteering(t *testing.T) {
	n := 8
	g := sharegraph.Ring(n)
	slow := func(i, j sharegraph.ReplicaID) float64 {
		// The edge between replicas 2 and 3 (register "ring2") is slow.
		if (i == 2 && j == 3) || (i == 3 && j == 2) {
			return 100
		}
		return 1
	}
	res, err := Search(g, SearchOptions{Seed: 5, EdgeWeight: slow})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Placement.Broken["ring2"]; !ok {
		t.Errorf("weighted search broke %v, want ring2 (the slow edge)", res.Placement.BrokenRegisters())
	}
}

// TestSearchMaxBroken caps the break count.
func TestSearchMaxBroken(t *testing.T) {
	g := sharegraph.RandomK(16, 40, 3, 3)
	res, err := Search(g, SearchOptions{Seed: 9, MaxBroken: 2, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placement.Broken) > 2 {
		t.Errorf("MaxBroken=2 exceeded: %d broken", len(res.Placement.Broken))
	}
}

// TestPlacementValidateRejects covers the validation error paths.
func TestPlacementValidateRejects(t *testing.T) {
	g := sharegraph.Ring(5)
	cases := []struct {
		name  string
		build func() *Placement
	}{
		{"unknown register", func() *Placement {
			p := NewPlacement(g)
			p.Broken["nope"] = Route{0, 1}
			return p
		}},
		{"short route", func() *Placement {
			p := NewPlacement(g)
			p.Broken["ring4"] = Route{0}
			return p
		}},
		{"out-of-range replica", func() *Placement {
			p := NewPlacement(g)
			p.Broken["ring4"] = Route{0, 99}
			return p
		}},
		{"revisit", func() *Placement {
			p := NewPlacement(g)
			p.Broken["ring4"] = Route{0, 1, 0, 4}
			return p
		}},
		{"skips holder", func() *Placement {
			p := NewPlacement(g)
			p.Broken["ring4"] = Route{0, 1}
			return p
		}},
		// The smallest bypass: both ring-closing breaks routed the long
		// way round put the hops back on a cycle, so 0 reaches 2 around
		// relay member 1, and a later write of 0 can overtake ring4's relay.
		{"bypass", func() *Placement {
			p := NewPlacement(g)
			p.Broken["ring4"] = Route{0, 1, 2, 3, 4}
			p.Broken["ring1"] = Route{1, 0, 4, 3, 2}
			return p
		}},
	}
	for _, tc := range cases {
		if err := tc.build().Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid placement", tc.name)
		}
	}
}

// TestBuildRouteRingLongWay: breaking the ring-closing register must
// route the long way around (holders 0 and n−1 share nothing else), i.e.
// visit every replica.
func TestBuildRouteRingLongWay(t *testing.T) {
	n := 6
	p := NewPlacement(sharegraph.Ring(n))
	route, ok := p.buildRoute(sharegraph.Register("ring5"))
	if !ok {
		t.Fatal("no route found")
	}
	if len(route) != n {
		t.Fatalf("route %v has %d members, want all %d replicas", route, len(route), n)
	}
}

// TestSharedHopForwardsInApplyOrder: two broken registers relayed over the
// same directed hop must cross it in the order the relay applied them.
// Leaf 3 writes x and then z; leaf 2 sees z and writes y, so y depends on
// x. Both are relayed through hub 0 to leaf 1, from different senders, and
// the hub applies them in one delivery when the x hop arrives late.
func TestSharedHopForwardsInApplyOrder(t *testing.T) {
	g, err := sharegraph.New([][]sharegraph.Register{
		{"a", "b", "c"}, {"c", "x", "y"}, {"b", "y", "z"}, {"a", "x", "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlacement(g)
	p.Broken["x"] = Route{1, 0, 3}
	p.Broken["y"] = Route{1, 0, 2}
	pp, err := p.Protocol("shared-hop")
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []*core.Prototype{&pp.Prototype, pp.Rescan()} {
		nodes, err := proto.NewNodes()
		if err != nil {
			t.Fatal(err)
		}
		tracker := causality.NewTracker(g)
		write := func(r sharegraph.ReplicaID, x sharegraph.Register) core.Envelope {
			envs, err := core.CollectWrite(nodes[r], x, 1, tracker.OnIssue(r, x))
			if err != nil || len(envs) != 1 {
				t.Fatalf("write %s at %d: %d messages, err %v", x, r, len(envs), err)
			}
			return envs[0]
		}
		deliver := func(env core.Envelope) []core.Envelope {
			applied, fwd := core.CollectMessage(nodes[env.To], env)
			for _, a := range applied {
				tracker.OnApply(env.To, a.OracleID)
			}
			return fwd
		}
		xHop := write(3, "x")
		deliver(write(3, "z"))
		yHop := write(2, "y")
		if fwd := deliver(yHop); len(fwd) != 0 {
			t.Fatalf("hub forwarded y before x arrived: %v", fwd)
		}
		fwd := deliver(xHop)
		if len(fwd) != 2 || fwd[0].To != 1 || fwd[1].To != 1 {
			t.Fatalf("hub forwards = %v, want x then y to replica 1", fwd)
		}
		deliver(fwd[1])
		deliver(fwd[0])
		if !tracker.Ok() {
			t.Errorf("%s: %v", proto.Name(), tracker.Violations())
		}
		if vs := tracker.CheckLiveness(); len(vs) != 0 {
			t.Errorf("%s: liveness: %v", proto.Name(), vs)
		}
	}
}
