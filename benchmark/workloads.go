package main

import (
	"fmt"
	"math/rand"
	"time"

	prcc "repro"
	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// numProbes is how many probe registers every workload sets aside.
const numProbes = 4

// ownerSeed picks every register's writer. It is a constant, like the
// placement seeds, so that the workload seed varies the op stream and the
// delivery shuffles but never which edges carry the load: runs on
// different seeds are then samples of one workload, and comparable.
const ownerSeed = 7

// The five workloads. Names are fixed: later changes cite them. Why each
// exists, its sizes and its paced rate are in spec.json.
var workloads = []*workloadDef{
	{name: "cluster_randomk64", layer: "sim", layout: layoutRandomK64, start: startCluster, unaudited: true},
	{name: "audit_ring64", layer: "sim", layout: layoutAuditRing64, start: startAudited(startCluster), batch: auditBatch},
	{name: "wire_ring8", layer: "wire", layout: layoutRing(8), start: startWire, proberGoroutine: true, unaudited: true, metaBytes: protocolMetaBytes},
	{name: "shard_zipf1k", layer: "shard", layout: layoutShardZipf, start: startSharded(shardSpaces), unaudited: true},
	{name: "clientserver_mixed", layer: "clientserver", layout: layoutClientServer, start: startClientServer},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// storesOf reads a generated share graph's placement back as plain data.
func storesOf(g *sharegraph.Graph) [][]prcc.Register {
	stores := make([][]prcc.Register, g.NumReplicas())
	for i := range stores {
		stores[i] = g.Stores(sharegraph.ReplicaID(i)).Sorted()
	}
	return stores
}

// layoutRandomK64 is the dense exact-graph workload: 192 registers, each
// on 3 of 64 replicas. The placement seed (7) is fixed so that every
// workload seed runs on the same share graph — 1022 timestamp entries per
// replica — and only the op stream varies. Probes are four
// of the graph's own registers, withheld from the load: adding registers
// to a dense graph could change which loops exist.
func layoutRandomK64(seed int64, ops int) *load {
	l := &load{stores: storesOf(sharegraph.RandomK(64, 192, 3, 7))}
	all := sharedSlots(l.stores, 0, rand.New(rand.NewSource(ownerSeed)), func(prcc.Register) bool { return false })
	l.probes, l.slots = all[:numProbes], all[numProbes:]
	for i := range l.probes {
		l.probes[i].probe = true
	}
	l.ops = uniformOps(ops, len(l.slots), rand.New(rand.NewSource(seed)))
	return l
}

// layoutRing is Ring(n) with private registers, probes on four of its
// edges, fixed owners and seeded uniform writes over the ring registers.
func layoutRing(n int) func(seed int64, ops int) *load {
	return func(seed int64, ops int) *load {
		l := &load{stores: ringStores(n, true)}
		l.probes = addRingProbes(l.stores, numProbes, 0)
		l.slots = sharedSlots(l.stores, 0, rand.New(rand.NewSource(ownerSeed)), isProbe)
		l.ops = uniformOps(ops, len(l.slots), rand.New(rand.NewSource(seed)))
		return l
	}
}

func isProbe(x prcc.Register) bool { return len(x) > 5 && x[:5] == "probe" }

// shardSpaces is the number of register spaces shard_zipf1k hosts.
const shardSpaces = 1000

// layoutShardZipf is 1000 copies of Ring(8) with space popularity
// zipf(s=1.1): space 0 is the hottest, space 999 the coldest, and the
// probes sit two in each.
func layoutShardZipf(seed int64, ops int) *load {
	l := &load{stores: ringStores(8, true)}
	probes := addRingProbes(l.stores, numProbes, 0)
	for i := range probes {
		if i%2 == 1 {
			probes[i].space = shardSpaces - 1
		}
	}
	l.probes = probes
	owners := rand.New(rand.NewSource(ownerSeed))
	for sp := 0; sp < shardSpaces; sp++ {
		l.slots = append(l.slots, sharedSlots(l.stores, sp, owners, isProbe)...)
	}
	rng := rand.New(rand.NewSource(seed))
	per := len(l.slots) / shardSpaces
	zipf := rand.NewZipf(rng, 1.1, 1, shardSpaces-1)
	l.ops = make([]op, ops)
	for i := range l.ops {
		l.ops[i].slot = int32(int(zipf.Uint64())*per + rng.Intn(per))
	}
	return l
}

// csReplicas is the ring size of clientserver_mixed; there is one load
// client per adjacent replica pair.
const csReplicas = 32

// layoutClientServer is the BenchmarkClientServerLive layout: Ring(32)
// without private registers, client c attached to replicas c and c+1 and
// the only writer of ring<c>. Each round every client issues one op, half
// of them reads: client c reads in the rounds where round+c is odd, one
// of the three registers it can reach (ring<c-1>, ring<c>, ring<c+1>),
// seeded. Each probe register gets a writer client attached to one of
// its holders and a reader client attached to the other; clients attached
// to a single replica add no edge to the augmented share graph.
func layoutClientServer(seed int64, ops int) *load {
	const n = csReplicas
	l := &load{stores: ringStores(n, false), clients: make([][]prcc.ReplicaID, n)}
	l.probes = addRingProbes(l.stores, numProbes, 0)
	l.slots = make([]slot, n)
	for c := 0; c < n; c++ {
		next := (c + 1) % n
		l.clients[c] = []prcc.ReplicaID{prcc.ReplicaID(c), prcc.ReplicaID(next)}
		l.slots[c] = slot{reg: prcc.Register(fmt.Sprintf("ring%d", c)), owner: c, home: c, holders: []int{c, next}, readVia: []int{c, next}}
	}
	for i := range l.probes {
		p := &l.probes[i]
		writer := len(l.clients)
		l.clients = append(l.clients, []prcc.ReplicaID{prcc.ReplicaID(p.holders[0])}, []prcc.ReplicaID{prcc.ReplicaID(p.holders[1])})
		p.owner, p.readVia = writer, []int{writer, writer + 1} // home stays holders[0]
	}
	rng := rand.New(rand.NewSource(seed))
	l.ops = make([]op, ops)
	for i := range l.ops {
		c, round := i%n, i/n
		o := op{slot: int32(c), actor: int32(c), read: (round+c)%2 == 1}
		if o.read {
			o.slot = int32((c + n - 1 + rng.Intn(3)) % n)
		}
		l.ops[i] = o
	}
	return l
}

// ---------------------------------------------------------------------------
// audit_ring64

// layoutAuditRing64 prepares both halves of the workload. The saturation
// load is kept exactly as the repo's headline benchmark row generates it:
// workload.SharedOnly on Ring(64). Registers are multi-writer there, so
// final values are not checkable and the oracle's verdict is the check.
// The paced phase runs on an audited live cluster and takes a
// single-writer load on Ring(64) plus probes, like the other workloads.
func layoutAuditRing64(seed int64, ops int) *load {
	l := layoutRing(64)(seed, ops)
	l.script = workload.SharedOnly(sharegraph.Ring(64), ops, seed)
	return l
}

// startAudited forces the oracle on: audit_ring64 never runs unaudited.
func startAudited(start func(*load, startOpts) (instance, error)) func(*load, startOpts) (instance, error) {
	return func(l *load, o startOpts) (instance, error) {
		o.audit = true
		return start(l, o)
	}
}

// auditBatch is one saturation pass of audit_ring64: build the protocol,
// then one deterministic, single-threaded, audited sim.Run under the
// seeded random scheduler.
func auditBatch(l *load, n int, o startOpts, tr *tracer, parent int32) (batchOut, error) {
	var out batchOut
	sid := tr.begin("setup", parent, -1)
	t := time.Now()
	g := sharegraph.Ring(64)
	p, err := core.NewEdgeIndexed(g)
	out.setupS = time.Since(t).Seconds()
	tr.end(sid)
	if err != nil {
		return out, err
	}
	sid = tr.begin("sim.run", parent, -1)
	t = time.Now()
	res, err := sim.Run(sim.Config{Graph: g, Protocol: p, Script: l.script[:n], Sched: transport.NewRandom(o.seed)})
	out.wallS = time.Since(t).Seconds()
	tr.end(sid)
	if err != nil {
		return out, err
	}
	out.msgs, out.metaBytes = int64(res.MessagesSent), int64(res.MetaBytes)
	out.failed = int64(len(res.Violations) + res.StuckPending)
	if res.Writes != n {
		out.failed += int64(n - res.Writes)
	}
	if !res.Ok() {
		out.note = res.Summary()
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// wire_ring8 extras

func (wi *wireInst) queuedOut() int {
	n := 0
	for _, nd := range wi.nodes {
		n += nd.Transport().QueuedOut()
	}
	return n
}

func (wi *wireInst) dropped() int64 {
	var n int64
	for _, nd := range wi.nodes {
		n += int64(nd.Transport().Dropped())
	}
	return n
}

func (wi *wireInst) ping() error {
	_, err := wi.load.Status(0)
	return err
}

// reference runs the same n ops through an audited in-process sim.Cluster
// and requires the deployment's snapshots to match it byte for byte.
func (wi *wireInst) reference(l *load, n int) error {
	g, p, err := edgeIndexedOver(l.stores)
	if err != nil {
		return err
	}
	c, err := sim.NewCluster(g, p)
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		s := &l.slots[l.ops[i].slot]
		if err := c.Write(sharegraph.ReplicaID(s.owner), s.reg, core.Value(i+1)); err != nil {
			return err
		}
	}
	c.Quiesce()
	if t := c.Tracker(); t != nil {
		t.CheckLiveness()
		if vs := t.Violations(); len(vs) > 0 {
			return fmt.Errorf("reference cluster: %d oracle violations, first: %v", len(vs), vs[0])
		}
	}
	snaps, err := wi.load.Snapshots()
	if err != nil {
		return err
	}
	if got, want := wire.FormatSnapshots(snaps), wire.FormatSnapshots(c.StateSnapshot()); got != want {
		return fmt.Errorf("wire snapshots differ from the in-process cluster on the same ops:\nwire:\n%s\ncluster:\n%s", got, want)
	}
	return nil
}

// protocolMetaBytes counts the metadata the edge-indexed protocol attaches
// to the first n writes, by an unaudited deterministic sim.Run of them.
// wire.Node counts bytes only with its status registry armed, which the
// untraced run leaves off; the protocol nodes, and so the metadata, are
// the ones the deployment runs.
func protocolMetaBytes(l *load, n int) (msgs, bytes int64, err error) {
	g, p, err := edgeIndexedOver(l.stores)
	if err != nil {
		return 0, 0, err
	}
	res, err := sim.Run(sim.Config{Graph: g, Protocol: p, Script: l.scriptOf(n), Sched: transport.NewRandom(1), SkipAudit: true})
	if err != nil {
		return 0, 0, err
	}
	return int64(res.MessagesSent), int64(res.MetaBytes), nil
}

// edgeIndexedOver builds the share graph of a placement and the paper's
// protocol over it.
func edgeIndexedOver(stores [][]prcc.Register) (*sharegraph.Graph, *core.EdgeIndexed, error) {
	g, err := sharegraph.New(stores)
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewEdgeIndexed(g)
	return g, p, err
}

// scriptOf renders the first n ops as a workload.Script with the values
// the drivers write.
func (l *load) scriptOf(n int) workload.Script {
	out := make(workload.Script, 0, n)
	for i := 0; i < n; i++ {
		o := l.ops[i%len(l.ops)]
		s := &l.slots[o.slot]
		out = append(out, workload.Op{Replica: sharegraph.ReplicaID(s.home), Reg: s.reg, IsRead: o.read, Val: int64(i + 1)})
	}
	return out
}
