package sharegraph

import (
	"testing"
	"testing/quick"
)

func TestFig3ShareGraph(t *testing.T) {
	g := Fig3Example()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.NumReplicas(); got != 4 {
		t.Fatalf("NumReplicas = %d, want 4", got)
	}
	// The share graph is the path 0–1–2–3 (paper's 1–2–3–4).
	wantEdges := map[Edge]bool{
		{0, 1}: true, {1, 0}: true,
		{1, 2}: true, {2, 1}: true,
		{2, 3}: true, {3, 2}: true,
	}
	for _, e := range g.Edges() {
		if !wantEdges[e] {
			t.Errorf("unexpected edge %v", e)
		}
		delete(wantEdges, e)
	}
	for e := range wantEdges {
		t.Errorf("missing edge %v", e)
	}
	// X23 = {y} in the paper = Shared(1, 2) here; X14 = ∅ = Shared(0, 3).
	if got := g.Shared(1, 2); !got.Equal(NewRegisterSet("y")) {
		t.Errorf("Shared(1,2) = %v, want {y}", got)
	}
	if got := g.Shared(0, 3); got != nil {
		t.Errorf("Shared(0,3) = %v, want nil", got)
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) succeeded, want error")
	}
}

func TestHoldersAndRecipients(t *testing.T) {
	g := Fig5Example()
	// y is stored at paper replicas 1, 2, 4 = zero-based 0, 1, 3.
	want := []ReplicaID{0, 1, 3}
	got := g.Holders("y")
	if len(got) != len(want) {
		t.Fatalf("Holders(y) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Holders(y) = %v, want %v", got, want)
		}
	}
	rec := g.UpdateRecipients(1, "y")
	if len(rec) != 2 || rec[0] != 0 || rec[1] != 3 {
		t.Fatalf("UpdateRecipients(1, y) = %v, want [0 3]", rec)
	}
}

func TestConnected(t *testing.T) {
	if !Fig3Example().Connected() {
		t.Error("Fig3 share graph should be connected")
	}
	g, err := New([][]Register{{"a"}, {"a"}, {"b"}, {"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Error("two disjoint pairs should be disconnected")
	}
}

func TestDegreeMatchesNeighbors(t *testing.T) {
	g := Fig5Example()
	for i := 0; i < g.NumReplicas(); i++ {
		if g.Degree(ReplicaID(i)) != len(g.Neighbors(ReplicaID(i))) {
			t.Errorf("replica %d: Degree != len(Neighbors)", i)
		}
	}
}

// placementFromSeed derives a small random register placement from a seed,
// for property tests.
func placementFromSeed(seed int64, maxReplicas, maxRegisters int) *Graph {
	rng := newTestRand(seed)
	n := 2 + rng.Intn(maxReplicas-1)
	regs := 1 + rng.Intn(maxRegisters)
	stores := make([][]Register, n)
	for r := 0; r < regs; r++ {
		// Place register r on a random non-empty subset of replicas.
		placed := false
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				stores[i] = append(stores[i], Register('a'+rune(r)))
				placed = true
			}
		}
		if !placed {
			stores[rng.Intn(n)] = append(stores[rng.Intn(n)], Register('a'+rune(r)))
		}
	}
	for i := range stores {
		if len(stores[i]) == 0 {
			stores[i] = []Register{Register("priv" + string(rune('0'+i)))}
		}
	}
	g, err := New(stores)
	if err != nil {
		panic(err)
	}
	return g
}

func TestShareGraphSymmetryProperty(t *testing.T) {
	// Definition 3: e_ij ∈ E iff e_ji ∈ E, with identical labels.
	prop := func(seed int64) bool {
		g := placementFromSeed(seed, 7, 10)
		if err := g.Validate(); err != nil {
			return false
		}
		for _, e := range g.Edges() {
			if !g.HasEdge(e.Reverse()) {
				return false
			}
			if !g.Shared(e.From, e.To).Equal(g.Shared(e.To, e.From)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegisterSetOps(t *testing.T) {
	a := NewRegisterSet("x", "y")
	b := NewRegisterSet("y", "z")
	if got := a.Clone().UnionInPlace(b); got.Len() != 3 {
		t.Errorf("UnionInPlace = %v, want 3 registers", got)
	}
	if got := a.Intersect(b); !got.Equal(NewRegisterSet("y")) {
		t.Errorf("Intersect = %v, want {y}", got)
	}
	if !a.DiffNonEmpty(b) {
		t.Error("DiffNonEmpty({x,y},{y,z}) = false, want true")
	}
	if b.DiffNonEmpty(NewRegisterSet("y", "z", "w")) {
		t.Error("DiffNonEmpty({y,z},{y,z,w}) = true, want false")
	}
	if a.String() != "{x, y}" {
		t.Errorf("String = %q, want {x, y}", a.String())
	}
	c := a.Clone()
	c.Add("q")
	if a.Has("q") {
		t.Error("Clone shares storage with original")
	}
}

func TestRegisterSetUnionDiffProperty(t *testing.T) {
	// (s ∪ t) − t ≠ ∅ ⇔ s − t ≠ ∅, and s ∪ t leaves s unchanged, for all
	// register sets.
	prop := func(xs, ys []uint8) bool {
		s, u := make(RegisterSet), make(RegisterSet)
		for _, x := range xs {
			s.Add(Register('a' + rune(x%16)))
		}
		for _, y := range ys {
			u.Add(Register('a' + rune(y%16)))
		}
		before := s.Clone()
		return union(s, u).DiffNonEmpty(u) == s.DiffNonEmpty(u) && s.Equal(before)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStringersAndAccessors(t *testing.T) {
	g := Fig3Example()
	if s := g.String(); s == "" {
		t.Error("empty graph render")
	}
	if regs := g.Registers(); len(regs) != 3 || regs[0] != "x" {
		t.Errorf("Registers = %v", regs)
	}
	if g.NumUndirectedEdges() != 3 {
		t.Errorf("NumUndirectedEdges = %d", g.NumUndirectedEdges())
	}
	if g.HasEdge(Edge{1, 1}) {
		t.Error("self-edge reported")
	}
	e := Edge{0, 1}
	if e.String() == "" || e.Reverse() != (Edge{1, 0}) {
		t.Error("edge helpers wrong")
	}
	lp := Loop{I: 0, L: []ReplicaID{1}, R: []ReplicaID{2}}
	if lp.String() == "" {
		t.Error("empty loop render")
	}
	ts := BuildTSGraph(g, 1, LoopOptions{})
	if ts.String() == "" {
		t.Error("empty tsgraph render")
	}
	h := Hoop{X: "x", Path: []ReplicaID{0, 1}}
	if h.edgeCount() != 1 {
		t.Errorf("edgeCount = %d", h.edgeCount())
	}
}
