package runtime

import (
	"fmt"
	"sync"
	"time"
)

// EdgeMessage is optionally implemented by messages that know their
// sender. The fault layer keys its per-edge plans and lotteries on the
// (Source, Dest) pair; messages that do not implement it are treated as
// coming from the pseudo-source -1. core.Envelope implements it.
type EdgeMessage interface {
	Message
	Source() int
}

// EdgeFault configures the unreliability of one directed link.
//
// Faults are transient, never permanent: a "dropped" transmission is
// diverted to a retransmit queue (exponential backoff, bounded attempts,
// then forced delivery), matching the paper's reliable-channel system
// model in the limit while exercising arbitrary extra reordering and
// delay in the meantime. Duplication re-delivers an accepted transmission
// a second time; receivers must tolerate exact replays.
type EdgeFault struct {
	// Drop is the probability in [0,1] that one transmission attempt is
	// lost and must be retransmitted.
	Drop float64
	// Dup is the probability in [0,1] that an accepted transmission is
	// delivered twice.
	Dup float64
}

// FaultPlan seeds the deterministic fault lottery of an engine. The zero
// value injects no faults (but still enables the partition controls of
// the FaultInjector).
//
// Determinism: every lottery outcome is a pure hash of (Seed, from, to,
// stream, counter) where the counter increments per transmission on that
// edge, so for a fixed sequence of per-edge transmissions the same
// faults fire regardless of goroutine scheduling.
type FaultPlan struct {
	// Seed drives the lottery (default 1).
	Seed int64
	// Default applies to every edge without a PerEdge entry.
	Default EdgeFault
	// PerEdge overrides Default for specific (from, to) links.
	PerEdge map[[2]int]EdgeFault
	// MaxRetransmits bounds consecutive lottery losses of one message
	// (default 6): after that many diverted attempts the retransmitter
	// delivers unconditionally, so loss never becomes a liveness failure.
	MaxRetransmits int
	// RetransmitBase is the first retransmission backoff (default 500µs);
	// it doubles per failed attempt.
	RetransmitBase time.Duration
}

func (p FaultPlan) withDefaults() FaultPlan {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.MaxRetransmits <= 0 {
		p.MaxRetransmits = 6
	}
	if p.RetransmitBase <= 0 {
		p.RetransmitBase = 500 * time.Microsecond
	}
	return p
}

func (p FaultPlan) edgeFault(from, to int) EdgeFault {
	if p.PerEdge != nil {
		if ef, ok := p.PerEdge[[2]int{from, to}]; ok {
			return ef
		}
	}
	return p.Default
}

// Lottery streams: distinct counters per purpose so data drops and data
// duplication draw independent sequences.
const (
	streamDrop = iota
	streamDup
)

// mix64 is the splitmix64 finalizer — the engine's standard bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// backoffMax caps one retransmission backoff: exponential growth is only
// meaningful for the first handful of attempts, and an unclamped
// RetransmitBase << attempts overflows time.Duration for user-configured
// MaxRetransmits past ~40, collapsing the backoff into immediate retries.
const backoffMax = time.Second

// backoff returns the delay before retransmission attempt n (n ≥ 1),
// doubling per attempt up to backoffMax (the shared Backoff discipline).
func (f *FaultInjector[M]) backoff(attempts int) time.Duration {
	return Backoff(f.plan.RetransmitBase, attempts, backoffMax)
}

// retransEntry is one diverted transmission waiting to be re-attempted.
type retransEntry[M Message] struct {
	m        M
	from, to int
	attempts int
	due      time.Time
}

// FaultInjector applies a FaultPlan at the engine's send/forward
// boundary and exposes the runtime fault control: partitions, with
// optional scheduled heal. Crashes are the host's: a crashed replica's
// messages are delivered and park at its node boundary (sim.Space).
// All methods are safe for concurrent use.
//
// Messages parked behind a cut edge do not count as in flight and
// bypass inbox backpressure: a writer whose recipient is partitioned
// away proceeds, exactly as a real sender would, and the backlog
// delivers at Heal time.
type FaultInjector[M Message] struct {
	eng   *Engine[M]
	plan  FaultPlan
	clone func(M) M

	mu      sync.Mutex
	seqs    map[[3]int]uint64    // (from, to, stream) → lottery counter
	cuts    map[[2]int]time.Time // cut edges → heal deadline (zero = manual)
	parked  map[[2]int][]M       // partition-parked, per cut edge
	retrans []retransEntry[M]
	dropped uint64 // transmissions diverted to the retransmit queue
	duped   uint64 // extra deliveries injected
	stopped bool

	stopPump chan struct{}
	pumpDone chan struct{}
}

func newFaultInjector[M Message](e *Engine[M], plan FaultPlan, clone func(M) M) *FaultInjector[M] {
	return &FaultInjector[M]{
		eng:      e,
		plan:     plan.withDefaults(),
		clone:    clone,
		seqs:     make(map[[3]int]uint64),
		cuts:     make(map[[2]int]time.Time),
		parked:   make(map[[2]int][]M),
		stopPump: make(chan struct{}),
		pumpDone: make(chan struct{}),
	}
}

// roll draws the next lottery value in [0,1) for one (edge, stream).
// Caller holds mu.
func (f *FaultInjector[M]) roll(from, to, stream int) float64 {
	k := [3]int{from, to, stream}
	n := f.seqs[k]
	f.seqs[k] = n + 1
	h := mix64(uint64(f.plan.Seed) ^ mix64(uint64(from+1)<<42^uint64(to+1)<<21^uint64(stream+1)))
	h = mix64(h ^ n)
	return float64(h>>11) / (1 << 53)
}

func source[M Message](m M) int {
	if em, ok := any(m).(EdgeMessage); ok {
		return em.Source()
	}
	return -1
}

// send routes one batch through the fault layer. Returns the number of
// messages accepted (delivered, queued for retransmission, or parked —
// everything except a shutdown-race drop).
func (f *FaultInjector[M]) send(ms []M, backpressure bool) int {
	accepted := 0
	for _, m := range ms {
		if !f.admit(m, backpressure) {
			break
		}
		accepted++
	}
	return accepted
}

func (f *FaultInjector[M]) admit(m M, backpressure bool) bool {
	from, to := source(m), m.Dest()
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		// Close has begun: the pump is joined and nothing may re-enter
		// the retransmit or parking books, but workers still deliver —
		// and forward — during the engine's drain. Pass straight through
		// so a forward cascade racing Close is delivered exactly as it
		// would be without the fault layer; the engine itself refuses
		// once it sets stopping.
		return f.eng.enqueueOne(m, backpressure) == 1
	}
	key := [2]int{from, to}
	if _, cut := f.cuts[key]; cut {
		f.parked[key] = append(f.parked[key], m)
		f.mu.Unlock()
		return true
	}
	ef := f.plan.edgeFault(from, to)
	if ef.Drop > 0 && f.roll(from, to, streamDrop) < ef.Drop {
		f.dropped++
		f.eng.obs.Dropped(from, to)
		f.retrans = append(f.retrans, retransEntry[M]{
			m: m, from: from, to: to, attempts: 1,
			due: time.Now().Add(f.plan.RetransmitBase),
		})
		f.mu.Unlock()
		return true
	}
	dup := ef.Dup > 0 && f.clone != nil && f.roll(from, to, streamDup) < ef.Dup
	// The duplicate is a distinct delivery of cloned payload (pooled
	// buffers inside m cannot be shared across two deliveries). The clone
	// must be taken BEFORE the original enters the engine: once enqueued, a
	// pool worker may deliver m concurrently and recycle its buffers, so a
	// later clone would copy memory another sender already reuses.
	var d M
	if dup {
		f.duped++
		f.eng.obs.Duped(from, to)
		d = f.clone(m)
	}
	f.mu.Unlock()
	if f.eng.enqueueOne(m, backpressure) == 0 {
		return false
	}
	if dup {
		// Duplicates never backpressure: real networks duplicate without
		// asking.
		f.eng.enqueueOne(d, false)
	}
	return true
}

// Cut severs the directed link from → to: transmissions park until the
// link heals. A zero healAfter cuts until an explicit Heal/HealAll; a
// positive healAfter schedules the heal, performed by the fault pump.
func (f *FaultInjector[M]) Cut(from, to int, healAfter time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var deadline time.Time
	if healAfter > 0 {
		deadline = time.Now().Add(healAfter)
	}
	f.cuts[[2]int{from, to}] = deadline
}

// CutBoth severs both directions between a and b (a two-way partition).
func (f *FaultInjector[M]) CutBoth(a, b int, healAfter time.Duration) {
	f.Cut(a, b, healAfter)
	f.Cut(b, a, healAfter)
}

// Heal restores the directed link from → to and delivers its parked
// backlog (without backpressure — the backlog was already accepted).
func (f *FaultInjector[M]) Heal(from, to int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.healLocked([2]int{from, to})
}

// HealAll restores every cut link.
func (f *FaultInjector[M]) HealAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for key := range f.cuts {
		f.healLocked(key)
	}
}

// healLocked flushes one cut edge. Caller holds mu; enqueueOne without
// backpressure never blocks, so holding mu across it is safe (the lock
// order f.mu → e.mu occurs on every flush path and nothing acquires
// them in the opposite order).
func (f *FaultInjector[M]) healLocked(key [2]int) {
	if _, ok := f.cuts[key]; !ok {
		return
	}
	delete(f.cuts, key)
	for _, m := range f.parked[key] {
		f.eng.enqueueOne(m, false)
	}
	delete(f.parked, key)
}

// Dropped returns the number of transmissions diverted to the
// retransmit queue so far; Duped the number of injected duplicates.
func (f *FaultInjector[M]) Dropped() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

func (f *FaultInjector[M]) Duped() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.duped
}

// ParkedMessages returns the number of messages currently parked behind
// cuts plus those awaiting retransmission.
func (f *FaultInjector[M]) ParkedMessages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.retrans)
	for _, ms := range f.parked {
		n += len(ms)
	}
	return n
}

// pump is the fault layer's single background goroutine: it re-attempts
// due retransmissions (re-rolling the loss lottery up to MaxRetransmits)
// and performs scheduled heals.
func (f *FaultInjector[M]) pump() {
	defer close(f.pumpDone)
	tick := f.plan.RetransmitBase
	if tick < 200*time.Microsecond {
		tick = 200 * time.Microsecond
	}
	timer := time.NewTimer(tick)
	defer timer.Stop()
	for {
		select {
		case <-f.stopPump:
			return
		case <-timer.C:
			f.step(time.Now(), false)
			timer.Reset(tick)
		}
	}
}

// step performs one pump iteration at the given time: due scheduled
// heals, then every due retransmission, re-rolling the loss lottery. It
// reports whether it enqueued anything. With force it is the Quiesce
// hook: every queued retransmission is delivered with no lottery.
// Either way a manually cut edge stays parked, so quiescing a
// partitioned engine leaves the partition backlog for Heal.
func (f *FaultInjector[M]) step(now time.Time, force bool) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return false
	}
	flushed := false
	for key, deadline := range f.cuts {
		if !deadline.IsZero() && !now.Before(deadline) {
			flushed = flushed || len(f.parked[key]) > 0
			f.healLocked(key)
		}
	}
	kept := f.retrans[:0]
	for _, re := range f.retrans {
		if !force && now.Before(re.due) {
			kept = append(kept, re)
			continue
		}
		// A re-cut edge re-parks the message rather than retransmitting
		// into the void.
		key := [2]int{re.from, re.to}
		if _, cut := f.cuts[key]; cut {
			f.parked[key] = append(f.parked[key], re.m)
			continue
		}
		ef := f.plan.edgeFault(re.from, re.to)
		if !force && re.attempts < f.plan.MaxRetransmits && ef.Drop > 0 &&
			f.roll(re.from, re.to, streamDrop) < ef.Drop {
			re.attempts++
			re.due = now.Add(f.backoff(re.attempts))
			kept = append(kept, re)
			continue
		}
		f.eng.obs.Retransmitted(re.from, re.to)
		f.eng.enqueueOne(re.m, false)
		flushed = true
	}
	// Zero the tail so dropped entries do not pin message payloads.
	clear(f.retrans[len(kept):])
	f.retrans = kept
	return flushed
}

// stop shuts the pump down and drops everything still parked (Close
// semantics: undelivered messages die with the engine).
func (f *FaultInjector[M]) stop() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stopped = true
	f.mu.Unlock()
	close(f.stopPump)
	<-f.pumpDone
	// With the pump joined, admit in pass-through and settle a no-op,
	// nothing touches the books again: cancel every pending retransmit
	// and drop the parked backlogs deterministically, so Close leaves no
	// timer-armed entry behind and releases the pinned payloads now
	// rather than at the garbage collector's whim.
	f.mu.Lock()
	clear(f.retrans)
	f.retrans = f.retrans[:0]
	clear(f.parked)
	f.mu.Unlock()
}

// String summarizes the injector state for diagnostics.
func (f *FaultInjector[M]) String() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fmt.Sprintf("faults{cuts=%d retrans=%d dropped=%d duped=%d}",
		len(f.cuts), len(f.retrans), f.dropped, f.duped)
}
