package causality

import (
	"fmt"
	"slices"

	"repro/internal/sharegraph"
)

// ReplicaCheckpoint freezes one replica's oracle-side state — its
// applied set and its known causal past — for crash/restart recovery.
// Exporting one costs a clone of the replica's applied bitset (one bit
// per update issued so far) and a copy of its dependency vector, paid
// only when a runtime takes an explicit checkpoint.
type ReplicaCheckpoint struct {
	// Replica is the checkpointed replica.
	Replica sharegraph.ReplicaID
	// Issued is the number of updates issued system-wide at export time
	// (diagnostics only; restore does not depend on it).
	Issued int

	applied bitset
	known   []int32
}

// ExportCheckpoint freezes replica j's applied set and known causal
// past. The snapshot is independently mutable state: later tracker
// activity never leaks into it.
func (t *Tracker) ExportCheckpoint(j sharegraph.ReplicaID) *ReplicaCheckpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &ReplicaCheckpoint{
		Replica: j,
		Issued:  len(t.updates),
		applied: t.applied[j].clone(),
		known:   slices.Clone(t.knownPast[j]),
	}
}

// RestoreCheckpoint rolls replica j's oracle state back to a checkpoint:
// applied and known-past revert to the frozen copies and j's queues of
// not-yet-applied updates are rebuilt against every update issued so
// far — updates issued while the replica was down correctly reappear as
// missing and must be re-applied for liveness. Update metadata (issuer,
// register, causal past) is global and survives untouched.
func (t *Tracker) RestoreCheckpoint(j sharegraph.ReplicaID, ck *ReplicaCheckpoint) error {
	if ck == nil {
		return fmt.Errorf("causality: nil checkpoint")
	}
	if ck.Replica != j {
		return fmt.Errorf("causality: checkpoint of replica %d restored at %d", ck.Replica, j)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(ck.known) != t.n {
		return fmt.Errorf("causality: checkpoint of a %d-replica tracker restored into %d replicas", len(ck.known), t.n)
	}
	// Copy on the way in so the caller may restore the same checkpoint
	// again after a second crash.
	t.applied[j] = ck.applied.clone()
	copy(t.knownPast[j], ck.known)
	// A full rebuild is O(updates issued), paid only on restart. The
	// rolled-back applied set also uncovers j's own post-checkpoint
	// issues; replaying them reports OnApply, which requires them queued.
	w := t.waiting[j]
	for k := range w {
		w[k] = idQueue{}
	}
	for id, u := range t.updates {
		if t.g.StoresRegister(j, u.reg) && !t.applied[j].has(id) {
			w[u.issuer].ids = append(w[u.issuer].ids, int32(id))
		}
	}
	return nil
}
