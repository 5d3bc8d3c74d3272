package causality

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sharegraph"
	"repro/internal/workload"
)

// The vector Tracker must be observationally identical to the flat-bitset
// reference: same UpdateIDs, same violations in the same order, same
// causal-past sizes, same deliverability and happened-before answers — at
// every step of the trace, on clean schedules, on schedules that violate
// safety, under the client-server extension and across checkpoint
// export/restore. These tests drive both through identical event traces
// derived from randomized workload.OwnerWrites runs.

type eventKind int

const (
	evIssue eventKind = iota
	evApply
	evClientAccess
	evClientWrite
	evExport
	evRestore
)

// oracleEvent is one oracle call in a replayable trace.
type oracleEvent struct {
	kind    eventKind
	replica sharegraph.ReplicaID
	reg     sharegraph.Register
	// update names the trace-relative index of the issue event an apply
	// refers to (UpdateIDs are allocated identically on both sides, so
	// the nth issued update has the same ID in each tracker).
	update int
	client sharegraph.ClientID
	// ck names the trace-relative index of the export a restore uses.
	ck int
}

type deliveryOrder int

const (
	inOrder deliveryOrder = iota // per-holder issue order: causally safe
	randomOrder
	lifoOrder // newest pending delivery first: adversarial
)

// traceMode selects what genTrace throws at the oracles.
type traceMode struct {
	name        string
	order       deliveryOrder
	faults      bool // duplicate and foreign applies
	clients     bool // client access/write hops
	checkpoints bool // export/restore, with the restored replica's replay
	mustBeClean bool // the reference must report no violation
}

var traceModes = []traceMode{
	{name: "clean", mustBeClean: true},
	// Client hops can make an in-order delivery trace report genuine
	// stale accesses (the client saw a past the next replica lacks), so
	// only the no-client traces assert Ok.
	{name: "clients", clients: true},
	{name: "violate", order: randomOrder, faults: true, clients: true},
	{name: "lifo", order: lifoOrder},
	{name: "checkpoint", checkpoints: true, mustBeClean: true},
	{name: "checkpoint-violate", order: randomOrder, faults: true, clients: true, checkpoints: true},
}

// genTrace turns an OwnerWrites script into an oracle event trace:
// issues in per-replica script order, deliveries to holders interleaved
// by rng in the mode's order (single-writer registers make in-order
// delivery causally safe). With checkpoints, replicas export checkpoints
// and later restore them — sometimes the same one twice — each restore
// followed at once by the replay of every event the replica saw since
// that export, as a restarted runtime replays its retention log before
// serving again.
func genTrace(g *sharegraph.Graph, script workload.Script, rng *rand.Rand, mode traceMode) []oracleEvent {
	n := g.NumReplicas()
	queues := make([][]workload.Op, n)
	for _, op := range script {
		if !op.IsRead {
			queues[op.Replica] = append(queues[op.Replica], op)
		}
	}
	type delivery struct {
		to sharegraph.ReplicaID
		up int
	}
	var trace []oracleEvent
	var pending []delivery
	issued, exports := 0, 0
	ckOf := make([]int, n) // latest export per replica, -1 for none
	for r := range ckOf {
		ckOf[r] = -1
	}
	logOf := make([][]oracleEvent, n) // applies at r since ckOf[r]
	apply := func(ev oracleEvent) {
		trace = append(trace, ev)
		logOf[ev.replica] = append(logOf[ev.replica], ev)
	}
	for {
		var writers []int
		for r := 0; r < n; r++ {
			if len(queues[r]) > 0 {
				writers = append(writers, r)
			}
		}
		if len(writers) == 0 && len(pending) == 0 {
			break
		}
		if mode.checkpoints && rng.Intn(20) == 0 {
			r := sharegraph.ReplicaID(rng.Intn(n))
			if ckOf[r] < 0 || rng.Intn(3) == 0 {
				trace = append(trace, oracleEvent{kind: evExport, replica: r, ck: exports})
				ckOf[r], logOf[r] = exports, nil
				exports++
			} else {
				for times := 1 + rng.Intn(2); times > 0; times-- {
					trace = append(trace, oracleEvent{kind: evRestore, replica: r, ck: ckOf[r]})
					trace = append(trace, logOf[r]...)
				}
			}
		}
		if len(writers) > 0 && (len(pending) == 0 || rng.Intn(2) == 0) {
			r := writers[rng.Intn(len(writers))]
			op := queues[r][0]
			queues[r] = queues[r][1:]
			if mode.clients && rng.Intn(8) == 0 {
				c := sharegraph.ClientID(rng.Intn(3))
				trace = append(trace, oracleEvent{kind: evClientAccess, replica: op.Replica, client: c})
				trace = append(trace, oracleEvent{kind: evClientWrite, replica: op.Replica, reg: op.Reg, client: c})
			} else {
				trace = append(trace, oracleEvent{kind: evIssue, replica: op.Replica, reg: op.Reg})
			}
			// A replay re-applies the replica's own issue.
			logOf[op.Replica] = append(logOf[op.Replica], oracleEvent{kind: evApply, replica: op.Replica, update: issued})
			for _, h := range g.Holders(op.Reg) {
				if h != op.Replica {
					pending = append(pending, delivery{to: h, up: issued})
				}
			}
			issued++
			continue
		}
		pick := 0
		switch mode.order {
		case randomOrder:
			pick = rng.Intn(len(pending))
		case lifoOrder:
			pick = len(pending) - 1
		}
		d := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)
		apply(oracleEvent{kind: evApply, replica: d.to, update: d.up})
		if mode.faults && rng.Intn(40) == 0 {
			apply(oracleEvent{kind: evApply, replica: d.to, update: d.up}) // duplicate
		}
		if mode.faults && rng.Intn(40) == 0 {
			apply(oracleEvent{kind: evApply, replica: d.to, update: issued + 1000}) // foreign
		}
	}
	return trace
}

// oracleUnderTest is the surface both the vector Tracker and the flat
// reference offer; C is the checkpoint type.
type oracleUnderTest[C any] interface {
	OnIssue(i sharegraph.ReplicaID, x sharegraph.Register) UpdateID
	OnApply(j sharegraph.ReplicaID, id UpdateID)
	OnClientAccess(c sharegraph.ClientID, i sharegraph.ReplicaID)
	OnClientWrite(c sharegraph.ClientID, i sharegraph.ReplicaID, x sharegraph.Register) UpdateID
	ExportCheckpoint(j sharegraph.ReplicaID) C
	RestoreCheckpoint(j sharegraph.ReplicaID, ck C) error
}

// player replays a trace into one oracle, mapping trace-relative issue
// and export indices to what that oracle returned.
type player[C any] struct {
	o   oracleUnderTest[C]
	ids []UpdateID
	cks []C
}

func (p *player[C]) step(ev oracleEvent) error {
	switch ev.kind {
	case evIssue:
		p.ids = append(p.ids, p.o.OnIssue(ev.replica, ev.reg))
	case evApply:
		id := UpdateID(ev.update + 1000000) // unknown → foreign
		if ev.update < len(p.ids) {
			id = p.ids[ev.update]
		}
		p.o.OnApply(ev.replica, id)
	case evClientAccess:
		p.o.OnClientAccess(ev.client, ev.replica)
	case evClientWrite:
		p.ids = append(p.ids, p.o.OnClientWrite(ev.client, ev.replica, ev.reg))
	case evExport:
		p.cks = append(p.cks, p.o.ExportCheckpoint(ev.replica))
	case evRestore:
		return p.o.RestoreCheckpoint(ev.replica, p.cks[ev.ck])
	}
	return nil
}

// forEachTrace runs fn on every (graph, seed, mode) trace.
func forEachTrace(t *testing.T, fn func(t *testing.T, g *sharegraph.Graph, mode traceMode, seed int64, trace []oracleEvent)) {
	graphs := []struct {
		name string
		g    *sharegraph.Graph
	}{
		{"ring8", sharegraph.Ring(8)},
		{"fig5", sharegraph.Fig5Example()},
		{"randomk", sharegraph.RandomK(10, 30, 3, 5)},
	}
	for _, tc := range graphs {
		for _, mode := range traceModes {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				for seed := int64(1); seed <= 6; seed++ {
					rng := rand.New(rand.NewSource(seed))
					trace := genTrace(tc.g, workload.OwnerWrites(tc.g, 400, seed), rng, mode)
					fn(t, tc.g, mode, seed, trace)
				}
			})
		}
	}
}

func TestTrackerDifferentialVectorVsFlat(t *testing.T) {
	forEachTrace(t, func(t *testing.T, g *sharegraph.Graph, mode traceMode, seed int64, trace []oracleEvent) {
		vec, ref := NewTracker(g), newFlatTracker(g)
		vp := &player[*ReplicaCheckpoint]{o: vec}
		rp := &player[*flatCheckpoint]{o: ref}
		probe := rand.New(rand.NewSource(seed))
		n := g.NumReplicas()
		for e, ev := range trace {
			if ve, re := vp.step(ev), rp.step(ev); (ve == nil) != (re == nil) {
				t.Fatalf("seed %d event %d: restore errors differ: %v vs %v", seed, e, ve, re)
			}
			// sim.Run's TrackFalseDeps queries mid-run, so compare a
			// sample after every event, biased toward recent updates.
			issued := len(vp.ids)
			for s := 0; s < 4 && issued > 0; s++ {
				a := UpdateID(probe.Intn(issued))
				b := UpdateID(issued - 1 - probe.Intn(min(issued, 16)))
				j := sharegraph.ReplicaID(probe.Intn(n))
				if vec.HappenedBefore(a, b) != ref.HappenedBefore(a, b) || vec.HappenedBefore(b, a) != ref.HappenedBefore(b, a) {
					t.Fatalf("seed %d event %d: HappenedBefore(%d,%d) differs", seed, e, a, b)
				}
				if vec.OracleDeliverable(j, b) != ref.OracleDeliverable(j, b) {
					t.Fatalf("seed %d event %d: OracleDeliverable(%d,%d) differs", seed, e, j, b)
				}
			}
		}
		if !reflect.DeepEqual(vp.ids, rp.ids) {
			t.Fatalf("seed %d: issued IDs differ", seed)
		}
		if mode.mustBeClean && !ref.Ok() {
			t.Fatalf("seed %d: in-order trace violated safety under the reference oracle: %v", seed, ref.Violations())
		}
		if vv, rv := vec.Violations(), ref.Violations(); !reflect.DeepEqual(vv, rv) {
			t.Fatalf("seed %d: violations differ:\nvector: %v\nflat:   %v", seed, vv, rv)
		}
		if vl, rl := vec.CheckLiveness(), ref.CheckLiveness(); !reflect.DeepEqual(vl, rl) {
			t.Fatalf("seed %d: liveness verdicts differ", seed)
		}
		if vec.NumUpdates() != ref.NumUpdates() {
			t.Fatalf("seed %d: NumUpdates differ", seed)
		}
		for id := UpdateID(0); int(id) < ref.NumUpdates(); id++ {
			if v, r := vec.CausalPastSize(id), ref.CausalPastSize(id); v != r {
				t.Fatalf("seed %d: CausalPastSize(%d) = %d vs %d", seed, id, v, r)
			}
			for r := 0; r < n; r++ {
				j := sharegraph.ReplicaID(r)
				if vec.Applied(j, id) != ref.Applied(j, id) {
					t.Fatalf("seed %d: Applied(%d,%d) differs", seed, r, id)
				}
				if vec.OracleDeliverable(j, id) != ref.OracleDeliverable(j, id) {
					t.Fatalf("seed %d: OracleDeliverable(%d,%d) differs", seed, r, id)
				}
			}
		}
		for c := sharegraph.ClientID(0); c < 3; c++ {
			if vec.ClientPastSize(c) != ref.ClientPastSize(c) {
				t.Fatalf("seed %d: ClientPastSize(%d) differs", seed, c)
			}
		}
	})
}

// TestFlatPastsArePrefixClosedPerIssuer pins the assumption the vector
// tracker rests on, on the reference that does not make it: every causal
// past — of every update, every replica and every client — restricted to
// one issuer is a prefix of that issuer's issue order.
func TestFlatPastsArePrefixClosedPerIssuer(t *testing.T) {
	forEachTrace(t, func(t *testing.T, g *sharegraph.Graph, mode traceMode, seed int64, trace []oracleEvent) {
		ref := newFlatTracker(g)
		rp := &player[*flatCheckpoint]{o: ref}
		for _, ev := range trace {
			_ = rp.step(ev)
		}
		byIssuer := make([][]int, g.NumReplicas())
		for id, u := range ref.updates {
			byIssuer[u.issuer] = append(byIssuer[u.issuer], id)
		}
		check := func(what string, past *bitset) {
			for k, ids := range byIssuer {
				in := true
				for _, id := range ids {
					if past.has(id) && !in {
						t.Fatalf("seed %d: %s holds update %d of issuer %d without an earlier one", seed, what, id, k)
					}
					in = in && past.has(id)
				}
			}
		}
		for id, u := range ref.updates {
			check(fmt.Sprintf("preds(%d)", id), u.preds)
		}
		for r, kp := range ref.knownPast {
			check(fmt.Sprintf("knownPast[%d]", r), kp)
		}
		for c, past := range ref.clients {
			check(fmt.Sprintf("client %d", c), past)
		}
	})
}

// issueApplier is the part of an oracle an audited run exercises.
type issueApplier interface {
	OnIssue(i sharegraph.ReplicaID, x sharegraph.Register) UpdateID
	OnApply(j sharegraph.ReplicaID, id UpdateID)
}

// driveOracle replays a straightforward audited run — every write
// applied at every holder in causal order — at the given op count.
func driveOracle(tr issueApplier, g *sharegraph.Graph, script workload.Script) {
	for _, op := range script {
		if op.IsRead {
			continue
		}
		id := tr.OnIssue(op.Replica, op.Reg)
		for _, h := range g.Holders(op.Reg) {
			if h != op.Replica {
				tr.OnApply(h, id)
			}
		}
	}
}

// totalAllocBytes measures the bytes allocated by fn. Benchmarks run
// sequentially, so TotalAlloc deltas are attributable to fn.
func totalAllocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// BenchmarkTrackerMemory compares allocated bytes per audited 10k-op run
// between the flat reference and the vector oracle, and fails unless the
// vector one is strictly cheaper. The flat reference clones one causal
// past per issue — quadratic bytes — while a dependency vector is n
// entries, so the gap widens with op count.
func BenchmarkTrackerMemory(b *testing.B) {
	const ops = 10000
	g := sharegraph.Ring(16)
	script := workload.OwnerWrites(g, ops, 1)
	flatB := totalAllocBytes(func() { driveOracle(newFlatTracker(g), g, script) })
	vecB := totalAllocBytes(func() { driveOracle(NewTracker(g), g, script) })
	if vecB >= flatB {
		b.Fatalf("vector oracle allocated %d B/run, flat %d B/run — vector must be strictly below flat at %d ops",
			vecB, flatB, ops)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		driveOracle(NewTracker(g), g, script)
	}
	// After the loop: ResetTimer discards metrics reported before it.
	b.ReportMetric(float64(flatB), "flatB/run")
	b.ReportMetric(float64(vecB), "vecB/run")
	b.ReportMetric(float64(flatB)/float64(vecB), "flat/vec")
}
