package causality

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/sharegraph"
)

// flatTracker is the reference oracle the vector Tracker is pinned to:
// every causal past is stored as an explicit set of update IDs, cloned
// per issue, so it needs no prefix-closure argument — and pays O(ops²/8)
// bytes per run for it. It mirrors Tracker's method set; the
// differential tests in tracker_diff_test.go drive both in lockstep.
type flatTracker struct {
	g *sharegraph.Graph

	mu      sync.Mutex
	updates []flatUpdate
	applied []*bitset
	// knownPast[i] = ∪ over u applied at i of {u} ∪ preds(u).
	knownPast []*bitset
	// missing[i] = updates on registers i stores not yet applied at i.
	missing    []*bitset
	clients    map[sharegraph.ClientID]*bitset
	violations []Violation
}

type flatUpdate struct {
	issuer sharegraph.ReplicaID
	reg    sharegraph.Register
	preds  *bitset // transitive ↪ predecessors, fixed at issue time
}

// flatCheckpoint is the reference's ReplicaCheckpoint.
type flatCheckpoint struct {
	replica        sharegraph.ReplicaID
	applied, known *bitset
}

func newFlatTracker(g *sharegraph.Graph) *flatTracker {
	n := g.NumReplicas()
	t := &flatTracker{g: g, clients: make(map[sharegraph.ClientID]*bitset)}
	for i := 0; i < n; i++ {
		t.applied = append(t.applied, &bitset{})
		t.knownPast = append(t.knownPast, &bitset{})
		t.missing = append(t.missing, &bitset{})
	}
	return t
}

func (t *flatTracker) issue(i sharegraph.ReplicaID, x sharegraph.Register, preds *bitset) UpdateID {
	id := len(t.updates)
	t.updates = append(t.updates, flatUpdate{issuer: i, reg: x, preds: preds})
	for _, h := range t.g.Holders(x) {
		if h != i {
			t.missing[h].set(id)
		}
	}
	t.applied[i].set(id)
	t.knownPast[i].orWith(preds)
	t.knownPast[i].set(id)
	return UpdateID(id)
}

func (t *flatTracker) OnIssue(i sharegraph.ReplicaID, x sharegraph.Register) UpdateID {
	t.mu.Lock()
	defer t.mu.Unlock()
	preds := t.knownPast[i].clone()
	return t.issue(i, x, &preds)
}

func (t *flatTracker) OnApply(j sharegraph.ReplicaID, id UpdateID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.updates) || !t.g.StoresRegister(j, t.updates[id].reg) {
		t.violations = append(t.violations, Violation{Kind: ForeignApply, Replica: j, Update: id})
		return
	}
	if t.applied[j].has(int(id)) {
		t.violations = append(t.violations, Violation{Kind: DuplicateApply, Replica: j, Update: id})
		return
	}
	u := t.updates[id]
	t.missing[j].forEachAnd(u.preds, func(m int) {
		t.violations = append(t.violations, Violation{Kind: SafetyViolation, Replica: j, Update: id, Missing: UpdateID(m)})
	})
	t.missing[j].clear(int(id))
	t.applied[j].set(int(id))
	t.knownPast[j].set(int(id))
	t.knownPast[j].orWith(u.preds)
}

func (t *flatTracker) OracleDeliverable(j sharegraph.ReplicaID, id UpdateID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.updates) {
		return false
	}
	ok := true
	t.missing[j].forEachAnd(t.updates[id].preds, func(int) { ok = false })
	return ok
}

func (t *flatTracker) HappenedBefore(a, b UpdateID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(a) < len(t.updates) && int(b) < len(t.updates) && t.updates[b].preds.has(int(a))
}

func (t *flatTracker) NumUpdates() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.updates)
}

func (t *flatTracker) Applied(j sharegraph.ReplicaID, id UpdateID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applied[j].has(int(id))
}

func (t *flatTracker) CausalPastSize(id UpdateID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.updates) {
		return 0
	}
	return t.updates[id].preds.count()
}

func (t *flatTracker) CheckLiveness() []Violation {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Violation
	for id, u := range t.updates {
		for _, h := range t.g.Holders(u.reg) {
			if !t.applied[h].has(id) {
				out = append(out, Violation{Kind: LivenessViolation, Replica: h, Update: UpdateID(id)})
			}
		}
	}
	t.violations = append(t.violations, out...)
	return out
}

func (t *flatTracker) Violations() []Violation {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Violation(nil), t.violations...)
}

func (t *flatTracker) Ok() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.violations) == 0
}

func (t *flatTracker) clientPast(c sharegraph.ClientID) *bitset {
	if t.clients[c] == nil {
		t.clients[c] = &bitset{}
	}
	return t.clients[c]
}

func (t *flatTracker) OnClientAccess(c sharegraph.ClientID, i sharegraph.ReplicaID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	past := t.clientPast(c)
	t.missing[i].forEachAnd(past, func(u int) {
		t.violations = append(t.violations, Violation{Kind: StaleAccess, Replica: i, Update: UpdateID(u), Missing: UpdateID(u)})
	})
	past.orWith(t.knownPast[i])
}

func (t *flatTracker) OnClientWrite(c sharegraph.ClientID, i sharegraph.ReplicaID, x sharegraph.Register) UpdateID {
	t.mu.Lock()
	defer t.mu.Unlock()
	preds := t.knownPast[i].clone()
	past := t.clientPast(c)
	preds.orWith(past)
	id := t.issue(i, x, &preds)
	past.orWith(&preds)
	past.set(int(id))
	return id
}

func (t *flatTracker) ClientPastSize(c sharegraph.ClientID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clientPast(c).count()
}

func (t *flatTracker) ExportCheckpoint(j sharegraph.ReplicaID) *flatCheckpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, k := t.applied[j].clone(), t.knownPast[j].clone()
	return &flatCheckpoint{replica: j, applied: &a, known: &k}
}

func (t *flatTracker) RestoreCheckpoint(j sharegraph.ReplicaID, ck *flatCheckpoint) error {
	if ck == nil || ck.replica != j {
		return fmt.Errorf("causality: checkpoint does not belong to replica %d", j)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a, k := ck.applied.clone(), ck.known.clone()
	t.applied[j], t.knownPast[j] = &a, &k
	t.missing[j] = &bitset{}
	for id, u := range t.updates {
		if t.g.StoresRegister(j, u.reg) && !a.has(id) {
			t.missing[j].set(id)
		}
	}
	return nil
}

// The reference's set algebra; production code needs only set, has and
// clone.

func (b *bitset) clear(idx int) {
	if w := idx / 64; w < len(b.words) {
		b.words[w] &^= 1 << (uint(idx) % 64)
	}
}

func (b *bitset) count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b *bitset) orWith(other *bitset) {
	if len(other.words) > len(b.words) {
		b.words = append(b.words, make([]uint64, len(other.words)-len(b.words))...)
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// forEachAnd calls fn for every element of b ∩ mask, ascending.
func (b *bitset) forEachAnd(mask *bitset, fn func(idx int)) {
	for wi := 0; wi < len(b.words) && wi < len(mask.words); wi++ {
		for w := b.words[wi] & mask.words[wi]; w != 0; w &= w - 1 {
			fn(wi*64 + bits.TrailingZeros64(w))
		}
	}
}
