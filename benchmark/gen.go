package main

import (
	"fmt"
	"math/rand"
	"sort"

	prcc "repro"
	"repro/internal/workload"
)

// The generator owns the load. Every register has one fixed writer and the
// workload seed fixes the op stream; op i writes the value i+1, so values
// per register strictly increase and the value every holder must end on is
// known without running anything. The runtimes under test receive only the
// ops, never the seed.

// slot is one register the benchmark writes: where it lives and who is
// allowed to write it.
type slot struct {
	space   int // shard_zipf1k: the register space; 0 elsewhere
	reg     prcc.Register
	owner   int   // the only writer: a replica, or a client on clientserver_mixed
	home    int   // the replica the owner's writes are applied at first
	holders []int // every replica that stores reg
	// readVia, on clientserver_mixed, names for each holder a client whose
	// reads of reg are served by that holder.
	readVia []int
	probe   bool // written only by the prober, never by the op stream
}

// op is one generated operation. Op i of a stream carries value i+1.
type op struct {
	slot  int32
	actor int32 // clientserver_mixed: the client issuing the op
	read  bool
}

// load is everything a workload run needs that depends on the seed.
type load struct {
	stores  [][]prcc.Register // placement, probe registers included
	clients [][]prcc.ReplicaID
	slots   []slot // registers the op stream writes
	probes  []slot // registers only the prober writes
	ops     []op
	script  workload.Script // audit_ring64 only: the stream sim.Run takes
	// wrongExpectation makes expected lie about one register, to prove
	// that a wrong final value fails the run.
	wrongExpectation bool
}

// expected returns, per slot, the value every holder must hold after the
// first n ops: one more than the index of the slot's last write, or 0 if
// it was never written. Past its end the stream repeats, values still
// counting up.
func (l *load) expected(n int) []int64 {
	want := make([]int64, len(l.slots))
	last := 0
	for i := 0; i < n; i++ {
		if o := l.ops[i%len(l.ops)]; !o.read {
			want[o.slot] = int64(i + 1)
			last = int(o.slot)
		}
	}
	if l.wrongExpectation {
		want[last]++
	}
	return want
}

// holdersOf inverts a placement.
func holdersOf(stores [][]prcc.Register) map[prcc.Register][]int {
	h := make(map[prcc.Register][]int)
	for r, regs := range stores {
		for _, x := range regs {
			h[x] = append(h[x], r)
		}
	}
	return h
}

// sharedSlots returns one slot per register stored on at least two
// replicas (a write to a private register sends nothing), in register
// order, each with an owner drawn from rng among its holders. Registers for which
// skip returns true are left out.
func sharedSlots(stores [][]prcc.Register, space int, rng *rand.Rand, skip func(prcc.Register) bool) []slot {
	holders := holdersOf(stores)
	regs := make([]string, 0, len(holders))
	for x, hs := range holders {
		if len(hs) >= 2 && !skip(x) {
			regs = append(regs, string(x))
		}
	}
	sort.Strings(regs)
	out := make([]slot, len(regs))
	for i, x := range regs {
		hs := holders[prcc.Register(x)]
		owner := hs[rng.Intn(len(hs))]
		out[i] = slot{space: space, reg: prcc.Register(x), owner: owner, home: owner, holders: hs}
	}
	return out
}

// uniformOps draws n writes uniformly over the slots.
func uniformOps(n, slots int, rng *rand.Rand) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i].slot = int32(rng.Intn(slots))
	}
	return ops
}

// addRingProbes adds k probe registers to a ring placement, spread evenly
// around it: probe<i> is stored by replicas i and i+1, which already share
// ring<i>, so the share graph keeps its edges. The probe is written at i.
func addRingProbes(stores [][]prcc.Register, k, space int) []slot {
	n := len(stores)
	probes := make([]slot, k)
	for p := range probes {
		i := p * n / k
		j := (i + 1) % n
		x := prcc.Register(fmt.Sprintf("probe%d", i))
		stores[i] = append(stores[i], x)
		stores[j] = append(stores[j], x)
		probes[p] = slot{space: space, reg: x, owner: i, home: i, holders: []int{i, j}, probe: true}
	}
	return probes
}

// ringStores is the placement of sharegraph.Ring(n): replica i stores
// ring<i-1> and ring<i>, plus priv<i> when private is set.
func ringStores(n int, private bool) [][]prcc.Register {
	stores := make([][]prcc.Register, n)
	for i := range stores {
		stores[i] = []prcc.Register{
			prcc.Register(fmt.Sprintf("ring%d", (i+n-1)%n)),
			prcc.Register(fmt.Sprintf("ring%d", i)),
		}
		if private {
			stores[i] = append(stores[i], prcc.Register(fmt.Sprintf("priv%d", i)))
		}
	}
	return stores
}
