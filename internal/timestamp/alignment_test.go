package timestamp_test

import (
	"math/rand"
	"testing"

	"repro/internal/clientserver"
	"repro/internal/optimize"
	"repro/internal/sharegraph"
	"repro/internal/timestamp"
)

// TestAlignmentEqualsIntersection pins Alignment's runs — the one place
// that knows how two edge orders line up — to TSGraph.Intersection and to
// the pair-form reference, pair for pair, together with its filtered,
// merge and dominance forms and every Space operation built on it. Each
// family of graphs below has pairs whose alignment is not the identity:
// Appendix D truncations (MaxLen 3–5), a placement's broken effective
// graph, and client-server replica and client universes.
func TestAlignmentEqualsIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// check reports whether any pair among graphs is not the identity.
	check := func(space *timestamp.Space, graphs []*sharegraph.TSGraph) (nonIdentity bool) {
		t.Helper()
		timestamp.CheckSpace(t, rng, space)
		for _, gi := range graphs {
			for _, gk := range graphs {
				nonIdentity = timestamp.CheckAlignment(t, rng, gi, gk) || nonIdentity
			}
		}
		return nonIdentity
	}
	spaceGraphs := func(s *timestamp.Space) []*sharegraph.TSGraph {
		var out []*sharegraph.TSGraph
		for i := 0; i < s.NumReplicas(); i++ {
			out = append(out, s.Graph(sharegraph.ReplicaID(i)))
		}
		return out
	}

	truncated := false
	for _, g := range []*sharegraph.Graph{sharegraph.Ring(8), sharegraph.RandomK(10, 24, 3, 7), sharegraph.Fig5Example()} {
		for maxLen := 3; maxLen <= 5; maxLen++ {
			graphs := sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{MaxLen: maxLen})
			space, err := timestamp.NewSpace(g, graphs)
			if err != nil {
				t.Fatal(err)
			}
			truncated = check(space, graphs) || truncated
		}
	}
	if !truncated {
		t.Error("every alignment between truncated graphs was the identity")
	}

	// Every replica tracks just the edges into replica 0, so J's incoming
	// edges at 0 form runs longer than one, and a run can cover another
	// sender's gate in its middle: the recheck lists must see that.
	g := sharegraph.FullReplication(4, 1)
	var into0 []sharegraph.Edge
	for j := 1; j < 4; j++ {
		into0 = append(into0, sharegraph.Edge{From: sharegraph.ReplicaID(j), To: 0})
	}
	var gathered []*sharegraph.TSGraph
	for i := 0; i < 4; i++ {
		gathered = append(gathered, sharegraph.NewTSGraphFromEdges(sharegraph.ReplicaID(i), into0))
	}
	space, err := timestamp.NewSpace(g, gathered)
	if err != nil {
		t.Fatal(err)
	}
	check(space, gathered)

	rb, err := optimize.BreakRing(8)
	if err != nil {
		t.Fatal(err)
	}
	if !check(rb.Space(), spaceGraphs(rb.Space())) {
		t.Error("every alignment on the broken ring was the identity")
	}

	aug, err := sharegraph.NewAugmented(sharegraph.RandomK(12, 16, 2, 8), sharegraph.ClientAssignment{{0, 5}, {2, 7}})
	if err != nil {
		t.Fatal(err)
	}
	sys := clientserver.NewSystem(aug)
	space, err = timestamp.NewSpace(aug.G, sys.ReplicaGraphs)
	if err != nil {
		t.Fatal(err)
	}
	if !check(space, append(append([]*sharegraph.TSGraph(nil), sys.ReplicaGraphs...), sys.ClientGraphs...)) {
		t.Error("every alignment among client-server replicas and universes was the identity")
	}
}
