// Package causality is the ground-truth oracle for replica-centric causal
// consistency (Definitions 1 and 2 of Xiang & Vaidya, PODC 2019). It
// tracks the true happened-before relation ↪ between updates as events are
// reported by a simulation — independently of any protocol timestamps — and
// judges safety (no update applied before a causally preceding update on a
// co-located register) and liveness (at quiescence, every update reached
// every replica storing its register).
//
// Because the oracle sees only issue/apply events and the register
// placement, it can audit any protocol, including deliberately broken
// baselines; the test suite relies on it to demonstrate both Theorem 24
// (the paper's algorithm is safe) and Theorem 8 (weakened timestamps are
// not).
//
// Each update's causal past is stored as a per-issuer dependency vector:
// dep(u)[k] is the highest UpdateID issued by replica k that happened
// before u, or −1. The vector is exact because every causal past is
// prefix-closed per issuer:
//   - a replica applies its own k-th update before it issues its
//     (k+1)-th, and ↪ is transitive (Definition 1), so a past that holds
//     one of k's updates holds all of k's earlier ones;
//   - a client's past (Definition 25) and a replica's known past are
//     unions of such pasts, and a union of prefix-closed sets is
//     prefix-closed; a checkpoint restore rolls a replica back to an
//     earlier such union and replays its retained log before it issues.
//
// These are Fidge/Mattern clocks over issuers, built from issue and apply
// events alone, so HappenedBefore, CausalPastSize and every safety check
// cost O(n) for n replicas. The safety checks compare a vector with
// firstMissing(j, k), the lowest update of issuer k on a register j
// stores that j has not applied: one ascending queue per (j, k), popped
// as j applies. The flat-bitset tracker in the package tests is the
// reference these verdicts are pinned to.
package causality

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/sharegraph"
)

// UpdateID identifies an issued update in issue order (0-based).
type UpdateID int

// ViolationKind classifies consistency violations.
type ViolationKind int

const (
	// SafetyViolation: an update was applied at a replica before some
	// causally preceding update on a register that replica stores.
	SafetyViolation ViolationKind = iota + 1
	// DuplicateApply: the same update was applied twice at one replica.
	DuplicateApply
	// ForeignApply: a replica applied an update for a register it does
	// not store.
	ForeignApply
	// LivenessViolation: at quiescence, an update had not been applied at
	// some replica storing its register.
	LivenessViolation
	// StaleAccess: a replica served a client while an update in the
	// client's observed causal past, on a register the replica stores,
	// was not yet applied there (Definition 26, second safety clause).
	StaleAccess
)

func (k ViolationKind) String() string {
	switch k {
	case SafetyViolation:
		return "safety"
	case DuplicateApply:
		return "duplicate-apply"
	case ForeignApply:
		return "foreign-apply"
	case LivenessViolation:
		return "liveness"
	case StaleAccess:
		return "stale-access"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Violation records one detected consistency violation.
type Violation struct {
	Kind    ViolationKind
	Replica sharegraph.ReplicaID
	Update  UpdateID
	// Missing is the causally preceding update that should have been
	// applied first (SafetyViolation only).
	Missing UpdateID
}

func (v Violation) String() string {
	switch v.Kind {
	case SafetyViolation:
		return fmt.Sprintf("safety: replica %d applied update %d before its causal predecessor %d",
			v.Replica, v.Update, v.Missing)
	case LivenessViolation:
		return fmt.Sprintf("liveness: update %d never applied at replica %d", v.Update, v.Replica)
	default:
		return fmt.Sprintf("%s: replica %d update %d", v.Kind, v.Replica, v.Update)
	}
}

// update is one issued update. dep is its causal past, fixed at issue
// time per Definition 1: dep[k] is the highest UpdateID of issuer k that
// happened before it, −1 for none.
type update struct {
	issuer sharegraph.ReplicaID
	seq    int32 // position in the issuer's issue order
	reg    sharegraph.Register
	dep    []int32
}

// idQueue is an ascending FIFO of update IDs whose head is kept
// unapplied at its replica: the head is firstMissing.
type idQueue struct {
	ids  []int32
	head int
}

// first returns the head, or MaxInt32 when the queue is empty.
func (q *idQueue) first() int32 {
	if q.head < len(q.ids) {
		return q.ids[q.head]
	}
	return math.MaxInt32
}

// popApplied drops applied IDs off the head, compacting once the dead
// prefix outgrows the live part (amortised O(1) per ID).
func (q *idQueue) popApplied(applied *bitset) {
	for q.head < len(q.ids) && applied.has(int(q.ids[q.head])) {
		q.head++
	}
	if q.head > len(q.ids)/2 {
		q.ids = q.ids[:copy(q.ids, q.ids[q.head:])]
		q.head = 0
	}
}

// Tracker is the oracle. It is safe for concurrent use, so the live
// goroutine cluster and the deterministic simulator share the same code.
type Tracker struct {
	g *sharegraph.Graph
	n int

	mu      sync.Mutex
	updates []update
	issued  []int32  // issued[k] = updates replica k has issued
	applied []bitset // applied[j] = updates applied at replica j
	// knownPast[j] = the max of dep(u) and u's own ID over every u
	// applied at j; copied per issue to fix the new update's past.
	knownPast [][]int32
	// waiting[j][k] holds, ascending, the updates of issuer k on
	// registers j stores that j may not have applied yet.
	waiting    [][]idQueue
	holderIdx  map[sharegraph.Register][]sharegraph.ReplicaID
	clients    map[sharegraph.ClientID][]int32
	violations []Violation
	// slab backs dependency vectors, n at a time.
	slab []int32
}

// NewTracker builds an oracle for the given register placement.
func NewTracker(g *sharegraph.Graph) *Tracker {
	n := g.NumReplicas()
	t := &Tracker{
		g:         g,
		n:         n,
		issued:    make([]int32, n),
		applied:   make([]bitset, n),
		knownPast: make([][]int32, n),
		waiting:   make([][]idQueue, n),
		holderIdx: make(map[sharegraph.Register][]sharegraph.ReplicaID),
		clients:   make(map[sharegraph.ClientID][]int32),
	}
	for j := range t.knownPast {
		t.knownPast[j] = t.newVector()
		t.waiting[j] = make([]idQueue, n)
	}
	return t
}

// newVector returns an all −1 vector of length n. Caller holds t.mu or
// owns t exclusively.
func (t *Tracker) newVector() []int32 {
	if len(t.slab) < t.n {
		t.slab = make([]int32, 256*t.n)
	}
	v := t.slab[:t.n:t.n]
	t.slab = t.slab[t.n:]
	for k := range v {
		v[k] = -1
	}
	return v
}

// maxInto sets dst to the element-wise max of dst and src.
func maxInto(dst, src []int32) {
	for k, s := range src {
		if s > dst[k] {
			dst[k] = s
		}
	}
}

// holders caches g.Holders per register (the graph accessor copies).
func (t *Tracker) holders(x sharegraph.Register) []sharegraph.ReplicaID {
	hs, ok := t.holderIdx[x]
	if !ok {
		hs = t.g.Holders(x)
		t.holderIdx[x] = hs
	}
	return hs
}

// safeAt reports whether everything in past on a register j stores is
// applied at j: ∀k firstMissing(j, k) > past[k].
func (t *Tracker) safeAt(j sharegraph.ReplicaID, past []int32) bool {
	w := t.waiting[j]
	for k, d := range past {
		if w[k].first() <= d {
			return false
		}
	}
	return true
}

// missingAt lists, ascending, the updates in past on registers j stores
// that j has not applied. Only a violation pays for it.
func (t *Tracker) missingAt(j sharegraph.ReplicaID, past []int32) []UpdateID {
	var out []UpdateID
	for k, q := range t.waiting[j] {
		for _, id := range q.ids[q.head:] {
			if id > past[k] {
				break
			}
			if !t.applied[j].has(int(id)) {
				out = append(out, UpdateID(id))
			}
		}
	}
	slices.Sort(out)
	return out
}

// pastSize counts the updates a dependency vector covers.
func (t *Tracker) pastSize(past []int32) int {
	n := 0
	for _, d := range past {
		if d >= 0 {
			n += int(t.updates[d].seq) + 1
		}
	}
	return n
}

// issue records an update by replica i on register x whose causal past
// is dep, applies it at i, and returns its ID. Caller holds t.mu.
func (t *Tracker) issue(i sharegraph.ReplicaID, x sharegraph.Register, dep []int32) UpdateID {
	id := int32(len(t.updates))
	t.updates = append(t.updates, update{issuer: i, seq: t.issued[i], reg: x, dep: dep})
	t.issued[i]++
	for _, h := range t.holders(x) {
		if h != i {
			q := &t.waiting[h][i]
			q.ids = append(q.ids, id)
		}
	}
	t.applied[i].set(int(id))
	// dep already covers knownPast[i]; the issuer now knows the update too.
	copy(t.knownPast[i], dep)
	t.knownPast[i][i] = id
	return UpdateID(id)
}

// OnIssue records that replica i issued an update on register x and
// returns its UpdateID. Per the replica prototype (step 2), the update is
// also applied locally at i as part of issuing. The update's causal past
// is everything applied at i so far, transitively closed.
func (t *Tracker) OnIssue(i sharegraph.ReplicaID, x sharegraph.Register) UpdateID {
	t.mu.Lock()
	defer t.mu.Unlock()
	dep := t.newVector()
	copy(dep, t.knownPast[i])
	return t.issue(i, x, dep)
}

// OnApply records that replica j applied update id (received from its
// issuer) and checks the safety property of Definition 2: every update u2
// with u2 ↪ id on a register j stores must already be applied at j.
func (t *Tracker) OnApply(j sharegraph.ReplicaID, id UpdateID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.updates) || !t.g.StoresRegister(j, t.updates[id].reg) {
		t.violations = append(t.violations, Violation{Kind: ForeignApply, Replica: j, Update: id})
		return
	}
	u := &t.updates[id]
	if t.applied[j].has(int(id)) {
		t.violations = append(t.violations, Violation{Kind: DuplicateApply, Replica: j, Update: id})
		return
	}
	if !t.safeAt(j, u.dep) {
		for _, m := range t.missingAt(j, u.dep) {
			t.violations = append(t.violations, Violation{
				Kind: SafetyViolation, Replica: j, Update: id, Missing: m,
			})
		}
	}
	t.applied[j].set(int(id))
	t.waiting[j][u.issuer].popApplied(&t.applied[j])
	kp := t.knownPast[j]
	maxInto(kp, u.dep)
	if int32(id) > kp[u.issuer] {
		kp[u.issuer] = int32(id)
	}
}

// OracleDeliverable reports whether, per the true ↪ relation, update id
// could safely be applied at replica j right now: every causal predecessor
// on a register j stores has been applied at j. The simulator uses it to
// measure false dependencies — moments when a protocol's predicate blocked
// an update the oracle would admit.
func (t *Tracker) OracleDeliverable(j sharegraph.ReplicaID, id UpdateID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.updates) {
		return false
	}
	return t.safeAt(j, t.updates[id].dep)
}

// HappenedBefore reports whether a ↪ b under the true relation.
func (t *Tracker) HappenedBefore(a, b UpdateID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(a) >= len(t.updates) || int(b) >= len(t.updates) {
		return false
	}
	return int32(a) <= t.updates[b].dep[t.updates[a].issuer]
}

// Concurrent reports whether neither a ↪ b nor b ↪ a.
func (t *Tracker) Concurrent(a, b UpdateID) bool {
	if a == b {
		return false
	}
	return !t.HappenedBefore(a, b) && !t.HappenedBefore(b, a)
}

// NumUpdates returns the number of updates issued so far.
func (t *Tracker) NumUpdates() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.updates)
}

// Applied reports whether update id has been applied at replica j.
func (t *Tracker) Applied(j sharegraph.ReplicaID, id UpdateID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applied[j].has(int(id))
}

// CausalPastSize returns |preds(id)|, the number of updates that
// happened-before id.
func (t *Tracker) CausalPastSize(id UpdateID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.updates) {
		return 0
	}
	return t.pastSize(t.updates[id].dep)
}

// CheckLiveness audits the liveness property of Definition 2 at
// quiescence: every issued update must be applied at every replica storing
// its register. Found gaps are recorded and returned.
func (t *Tracker) CheckLiveness() []Violation {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Violation
	for id, u := range t.updates {
		for _, h := range t.holders(u.reg) {
			if !t.applied[h].has(id) {
				v := Violation{Kind: LivenessViolation, Replica: h, Update: UpdateID(id)}
				out = append(out, v)
				t.violations = append(t.violations, v)
			}
		}
	}
	return out
}

// Violations returns all violations recorded so far (a copy).
func (t *Tracker) Violations() []Violation {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Violation(nil), t.violations...)
}

// Ok reports whether no violation has been recorded.
func (t *Tracker) Ok() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.violations) == 0
}
