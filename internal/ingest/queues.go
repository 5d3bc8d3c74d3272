// Package ingest implements the per-sender buffering of the indexed
// drain in core's replica prototype. Every clock in this repository gates
// delivery from a given sender on a per-receiver sequence number that each
// send advances by exactly one, so a receiver can file buffered updates in
// per-sender queues keyed by that number: an out-of-order arrival is one
// map insert, and at most one entry per sender — the exact key gate+1 —
// can ever be deliverable. SenderQueues holds that filing logic (duplicate
// guard, lazy map initialization, the gate comparison, dead parking,
// pending accounting) and the one staleness rule every protocol follows:
// an update the gate has passed is kept, counted and never offered again.
package ingest

// SenderQueues buffers not-yet-deliverable updates of type P, one queue
// per sender, keyed by the update's per-receiver sequence number. The
// zero value is not ready to use; construct with NewSenderQueues.
//
// SenderQueues does not evaluate the protocol's full deliverability
// predicate — only its sequence-number skeleton. Callers keep the gate
// counters (they live inside protocol timestamps) and run the full
// predicate on queue heads via Peek before committing with Remove.
type SenderQueues[P any] struct {
	queues []map[uint64]P
	// dead parks updates the predicate can never admit again: replayed or
	// stale sequence numbers (the gate only grows, so strict equality
	// gate+1 = seq can never hold), duplicates of an already-filed key,
	// and updates whose sender edge is untracked. They stay counted in
	// Len so pending accounting matches the reference rescan engines,
	// which keep rescanning such updates forever in vain.
	dead []P
	n    int
}

// NewSenderQueues builds queues for the given number of senders. Callers
// bounds-check envelope senders against it before filing (the guard lives
// with the node, which also serves the reference drain and logs with
// protocol context); Offer indexes by sender unchecked.
func NewSenderQueues[P any](senders int) SenderQueues[P] {
	return SenderQueues[P]{queues: make([]map[uint64]P, senders)}
}

// Offer files update u from sender from, carrying sequence number seq,
// given the receiver's current gate counter for that sender. Stale
// sequence numbers (seq ≤ gate) and duplicates of an already-filed key
// are parked dead. It returns true exactly when seq == gate+1, i.e. when
// the sender's queue head may now satisfy the full predicate and the
// caller should drain.
func (q *SenderQueues[P]) Offer(from int, seq, gate uint64, u P) bool {
	q.n++
	if seq <= gate {
		q.dead = append(q.dead, u)
		return false
	}
	m := q.queues[from]
	if _, dup := m[seq]; dup {
		q.dead = append(q.dead, u)
		return false
	}
	if m == nil {
		m = make(map[uint64]P)
		q.queues[from] = m
	}
	m[seq] = u
	return seq == gate+1
}

// Park files an update that can never become deliverable regardless of
// sequence number — e.g. the edge-indexed protocol receiving from a
// sender whose edge counter its truncated timestamp graph does not track.
func (q *SenderQueues[P]) Park(u P) {
	q.dead = append(q.dead, u)
	q.n++
}

// Peek returns the update filed under seq for the given sender, without
// removing it.
func (q *SenderQueues[P]) Peek(from int, seq uint64) (P, bool) {
	u, ok := q.queues[from][seq]
	return u, ok
}

// Remove unfiles the update at (from, seq) after the caller applied it.
func (q *SenderQueues[P]) Remove(from int, seq uint64) {
	delete(q.queues[from], seq)
	q.n--
}

// Len returns the number of buffered updates, counting dead-parked ones —
// the pending_i set size of the replica prototype.
func (q *SenderQueues[P]) Len() int { return q.n }

// Live returns the number of buffered updates some future gate value can
// still admit: everything filed, nothing dead-parked.
func (q *SenderQueues[P]) Live() int { return q.n - len(q.dead) }

// QueueLen returns the number of live (non-dead) updates buffered from
// one sender. Drain loops use it to skip senders with nothing filed.
func (q *SenderQueues[P]) QueueLen(from int) int { return len(q.queues[from]) }

// All calls yield for every buffered update — live queues first, then the
// dead parking — in unspecified order. False-dependency accounting and
// diagnostics use it; protocols must not.
func (q *SenderQueues[P]) All(yield func(P)) {
	for _, m := range q.queues {
		for _, u := range m {
			yield(u)
		}
	}
	for _, u := range q.dead {
		yield(u)
	}
}
