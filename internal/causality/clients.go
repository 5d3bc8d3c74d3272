package causality

import "repro/internal/sharegraph"

// Client-server extensions (Appendix E): clients propagate causal
// dependencies between replicas they access, so the happened-before
// relation ↪′ (Definition 25) gains a clause — an update issued by a
// client depends on everything applied at every replica that client
// previously accessed. The oracle models this with one dependency vector
// per client.

// OnClientAccess records that replica i accepted (responded to) a request
// from client c, and audits the second safety clause of Definition 26:
// every update in the client's observed past on a register i stores must
// already be applied at i. The client then absorbs i's causal past.
func (t *Tracker) OnClientAccess(c sharegraph.ClientID, i sharegraph.ReplicaID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	past := t.clientPast(c)
	if !t.safeAt(i, past) {
		for _, u := range t.missingAt(i, past) {
			t.violations = append(t.violations, Violation{
				Kind: StaleAccess, Replica: i, Update: u, Missing: u,
			})
		}
	}
	maxInto(past, t.knownPast[i])
}

// OnClientWrite records that replica i accepted a write of register x from
// client c: the new update's causal past is the union of the replica's and
// the client's pasts (Definition 25, clauses (i) and (ii)); the update is
// applied locally at i as part of issuing, and the client observes it.
// Call OnClientAccess first to audit the access itself.
func (t *Tracker) OnClientWrite(c sharegraph.ClientID, i sharegraph.ReplicaID, x sharegraph.Register) UpdateID {
	t.mu.Lock()
	defer t.mu.Unlock()
	past := t.clientPast(c)
	dep := t.newVector()
	copy(dep, t.knownPast[i])
	maxInto(dep, past)
	id := t.issue(i, x, dep)
	copy(past, t.knownPast[i])
	return id
}

// clientPast returns (lazily creating) client c's dependency vector.
// Caller holds t.mu.
func (t *Tracker) clientPast(c sharegraph.ClientID) []int32 {
	v, ok := t.clients[c]
	if !ok {
		v = t.newVector()
		t.clients[c] = v
	}
	return v
}

// ClientPastSize returns the number of updates in client c's observed
// causal past.
func (t *Tracker) ClientPastSize(c sharegraph.ClientID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pastSize(t.clientPast(c))
}
