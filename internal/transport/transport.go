// Package transport provides the simulated asynchronous network of the
// paper's system model (Section 2): reliable, point-to-point, and —
// crucially for the lower-bound arguments — NOT FIFO. In-flight messages
// live in a Pool; a Scheduler decides which one is delivered next, letting
// tests explore seeded-random and adversarial reorderings reproducibly.
package transport

import (
	"math/rand"

	"repro/internal/core"
)

// Pool is the multiset of in-flight messages. The zero value is ready to
// use. Pool is not safe for concurrent use; the deterministic runner owns
// it single-threaded.
//
// Messages stay in arrival order in one slice with a head index: Take
// shifts whichever side of the removal point is shorter, so the oldest
// (FIFO) and newest (LIFO) picks are O(1), a uniformly random pick moves
// at most half the live region, and memmove over a few hundred envelopes
// is cheaper than maintaining any index.
type Pool struct {
	// The live region is msgs[head:], in arrival order.
	msgs []core.Envelope
	head int
}

// Add inserts messages into the pool.
func (p *Pool) Add(envs ...core.Envelope) {
	p.msgs = append(p.msgs, envs...)
}

// Len returns the number of in-flight messages.
func (p *Pool) Len() int { return len(p.msgs) - p.head }

// Peek returns the message at index idx without removing it.
func (p *Pool) Peek(idx int) core.Envelope { return p.msgs[p.head+idx] }

// Take removes and returns the message at index idx. Removal preserves
// the relative order of the remaining messages, so FIFO scheduling over
// the pool really is per-arrival FIFO.
func (p *Pool) Take(idx int) core.Envelope {
	i := p.head + idx
	m := p.msgs[i]
	if i-p.head <= len(p.msgs)-1-i {
		// Shift the (shorter) prefix right; vacated slots are zeroed so
		// the pool does not pin delivered metadata buffers.
		copy(p.msgs[p.head+1:i+1], p.msgs[p.head:i])
		p.msgs[p.head] = core.Envelope{}
		p.head++
		if p.head > len(p.msgs)/2 && p.head >= 64 {
			p.compact()
		}
	} else {
		copy(p.msgs[i:], p.msgs[i+1:])
		p.msgs[len(p.msgs)-1] = core.Envelope{}
		p.msgs = p.msgs[:len(p.msgs)-1]
	}
	return m
}

// compact slides the live region back to the front of the backing array,
// reclaiming the dead prefix. Triggered only once the prefix dominates,
// its O(live) cost amortizes to O(1) per Take.
func (p *Pool) compact() {
	live := len(p.msgs) - p.head
	copy(p.msgs, p.msgs[p.head:])
	tail := p.msgs[live:]
	for j := range tail {
		tail[j] = core.Envelope{}
	}
	p.msgs = p.msgs[:live]
	p.head = 0
}

// Scheduler picks which of n pending choices happens next. Implementations
// must be deterministic given their construction parameters.
type Scheduler interface {
	// Pick returns an index in [0, n). n ≥ 1.
	Pick(n int) int
	// Name identifies the schedule in experiment output.
	Name() string
}

// RandomScheduler delivers uniformly at random from a seeded PRNG —
// the workhorse reordering adversary.
type RandomScheduler struct {
	rng *rand.Rand
}

var _ Scheduler = (*RandomScheduler)(nil)

// NewRandom builds a seeded random scheduler.
func NewRandom(seed int64) *RandomScheduler {
	return &RandomScheduler{rng: rand.New(rand.NewSource(seed))}
}

// Pick implements Scheduler.
func (s *RandomScheduler) Pick(n int) int { return s.rng.Intn(n) }

// Name implements Scheduler.
func (s *RandomScheduler) Name() string { return "random" }

// FIFOScheduler always delivers the oldest choice — the most benign
// schedule (per-channel FIFO and op order preserved).
type FIFOScheduler struct{}

var _ Scheduler = FIFOScheduler{}

// Pick implements Scheduler.
func (FIFOScheduler) Pick(int) int { return 0 }

// Name implements Scheduler.
func (FIFOScheduler) Name() string { return "fifo" }

// ScriptedScheduler replays a fixed pick sequence, then falls back to
// FIFO. Picks out of range are clamped to the newest choice. It drives the
// precisely staged executions of the Theorem 8 necessity experiments.
type ScriptedScheduler struct {
	picks []int
	pos   int
}

var _ Scheduler = (*ScriptedScheduler)(nil)

// NewScripted builds a scheduler replaying picks.
func NewScripted(picks ...int) *ScriptedScheduler {
	return &ScriptedScheduler{picks: picks}
}

// Pick implements Scheduler.
func (s *ScriptedScheduler) Pick(n int) int {
	if s.pos >= len(s.picks) {
		return 0
	}
	p := s.picks[s.pos]
	s.pos++
	if p >= n {
		p = n - 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// Name implements Scheduler.
func (s *ScriptedScheduler) Name() string { return "scripted" }

// LIFOScheduler always delivers the newest choice, maximally reversing
// per-channel order — the adversary used by the Theorem 8 necessity
// executions, which rely on a later message overtaking an earlier one.
type LIFOScheduler struct{}

var _ Scheduler = LIFOScheduler{}

// Pick implements Scheduler.
func (LIFOScheduler) Pick(n int) int { return n - 1 }

// Name implements Scheduler.
func (LIFOScheduler) Name() string { return "lifo" }
