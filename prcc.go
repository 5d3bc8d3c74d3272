// Package prcc is a partially replicated causally consistent shared
// memory, implementing the algorithm and analyses of Xiang & Vaidya,
// "Partially Replicated Causally Consistent Shared Memory: Lower Bounds
// and An Algorithm" (PODC 2019).
//
// A System is defined by a register placement: which replica stores which
// shared read/write registers. From the placement the library derives the
// share graph (Definition 3), each replica's timestamp graph (the exact
// set of edge counters Theorem 8 proves necessary and Theorem 24 proves
// sufficient), and runs the Section 3.3 edge-indexed protocol over either
// a live worker-pool cluster or a deterministic simulator.
//
// Quick start:
//
//	sys, err := prcc.New([][]prcc.Register{
//	    {"x"}, {"x", "y"}, {"y", "z"}, {"z"},
//	})
//	cluster, err := sys.Cluster()
//	cluster.Write(1, "y", 42)
//	cluster.Sync()
//	v, ok := cluster.Read(2, "y") // 42, true — causally consistent
//	err = cluster.Check()          // audit with the happened-before oracle
//	cluster.Close()
//
// # Live runtime
//
// Cluster is a worker-pool runtime: a fixed pool of delivery workers
// (ClusterOptions.Workers, default GOMAXPROCS) pulls messages from
// bounded per-replica inboxes and feeds them to the protocol state
// machines, so the goroutine count is workers plus constant overhead
// regardless of traffic — not one goroutine per message. The transport
// realizes the paper's non-FIFO system model by seeded shuffle: each
// delivery takes a uniformly random buffered message from the
// destination's inbox.
//
// Backpressure contract: Write blocks while any destination inbox is at
// capacity (ClusterOptions.InboxCapacity, default 1024), so writers are
// throttled to delivery speed instead of growing memory without bound.
// Protocol-level forwards (relaying topologies) are exempt — a worker
// that blocked on a full inbox could deadlock the pool — so inboxes can
// transiently overshoot by at most one write fanout per worker. Close
// drains all in-flight messages and stops every worker before returning.
// RunCluster drives a generated workload through a live cluster end to
// end and reports the oracle's verdicts.
//
// The same runtime runs the Appendix E client-server architecture:
// LiveClientServer (see ClientServerSystem.Live and LiveWith) is a
// Cluster whose replicas are the Appendix E servers, so both of the
// paper's deployment shapes share one bounded-goroutine runtime, one
// oracle and one ClusterOptions surface.
//
// # Robustness
//
// The runtime carries a seeded fault-injection layer, armed by
// ClusterOptions.Chaos: per-edge drop and duplication lotteries and one-
// and two-way partitions with scheduled heals. They are injected at the
// engine's send/forward boundary, so the replica cluster and the
// client-server deployment (ClientServerSystem.LiveWith with Chaos set)
// inherit the same fault model. Every lottery
// outcome is a pure hash of (seed, edge, stream, counter), so a chaos
// run injects the same faults regardless of goroutine scheduling. A
// dropped transmission is diverted to a retransmit queue with
// exponential backoff and is force-delivered after
// FaultPlan.MaxRetransmits consecutive losses — loss degrades latency,
// never liveness. Messages crossing a cut edge park at the transport and
// flush at heal. The replica cluster can also crash and restart whole
// replicas: a crashed replica's messages are still delivered, and park
// at its node boundary until restart. The caller drives every fault;
// the runtime never decides on its own that a replica has failed. No
// such verdict could change what a replica applies: the share graph
// fixes each write's recipients, and predicate J decides delivery from
// the timestamp alone.
//
// Crashed replicas recover by state transfer. Cluster.Checkpoint
// snapshots the node — register store, timestamp vector, buffered
// updates — together with the oracle's causal-past export for that
// replica, and begins a retention log of subsequent local events.
// Cluster.Restart installs the checkpoint into a fresh node and replays
// the log in original order (per-replica protocol determinism makes the
// replay exact, and nothing is re-emitted: the first execution already
// dispatched each update's fanout and the transport never truly loses a
// message), then re-sends the messages parked at it while it was down.
//
// The happened-before oracle stays the judge under every fault class:
// loss and duplication must produce zero safety violations and full
// liveness at quiescence; partitions must settle to full liveness once
// healed; a crashed-and-restarted cluster must converge to the same
// final state as a fault-free run of the same workload (the
// differential test); and on deliberately weakened timestamp graphs the
// Theorem 8 violation must still surface — duplicate hardening may
// discard only genuine redundancy (same sender, same sequence), never
// adversarial reordering. With chaos disarmed the fault hooks reduce to
// one nil check on the delivery path, held to zero measured cost by the
// gated BenchmarkClusterThroughput base/chaos split.
//
// # Deployment
//
// A replica can be a process, not just a struct. Its deployed logic is a
// wire.Host, with no goroutines or sockets: the protocol node plus the
// link-identity checks, the log-before-apply mutation log (replayed
// through the same Host.Step path), update-ID issue and the quiesce
// counters. The wire tests run sim.Run over hosts, so the causality
// oracle judges that logic; a wire.Node is a Host plus I/O. The package
// also defines a versioned length-prefixed envelope codec (magic + version + kind,
// timestamp vectors via their append-style EncodeTo form) and a TCP
// transport that implements the same Send/Forward contract as the
// in-process engine: per-peer writer goroutines over bounded queues,
// Send backpressure with Forward exempt, and reconnect with the same
// capped exponential backoff the retransmit path uses. Every outgoing
// stream, peer link and client connection alike, is group-committed:
// frames are appended to one buffer per stream and a writer goroutine
// sends the whole backlog with one socket write per wake-up, resuming
// at a frame boundary after a failed write. The client's requests wait
// for its buffered writes to reach the socket first. The decoder is
// hardened against adversarial input — every declared length is clamped
// against the bytes actually present before anything is allocated, and
// frames are bounded by wire.MaxFrameSize.
//
// cmd/prcc-node serves one replica of a JSON cluster config;
// cmd/prcc-client drives a deployed cluster (writes, quiescence
// detection by double-polled stable status, snapshots, shutdown) and
// can emit configs for the parametric topologies.
// scripts/run_cluster.sh boots a full cluster of OS processes on
// loopback and scripts/stop_cluster.sh retires it. The multi-process
// cluster is pinned to the in-process runtime by a differential test:
// the same owner-writes workload through real sockets must reach final
// states byte-identical to sim.Cluster's.
//
// # Sharding and batching
//
// One placement can be hosted thousands of times over: a ShardedSystem
// (System.Sharded / ShardedWith) runs ShardOptions.Spaces independent
// instances of the system — each its own protocol node set and
// optional oracle — multiplexed over a single shared worker pool
// instead of one runtime per space. Registers are addressed by (space,
// replica, register) and rendered as routing keys "s<space>/<register>"
// (ShardedSystem.Key / Resolve); space s routes to engine shard
// s mod Shards, each shard being one bounded engine inbox, so
// goroutines scale with ShardOptions.Workers while spaces scale with
// memory only.
//
// Crossing the engine boundary is batched per shard: an update fanout
// stages envelopes into its shard's outbox, and one engine message
// carries up to FlushSize of them (metadata copied through the same
// recycling pool as the cluster transport, so the staged-write →
// flush → deliver cycle is allocation-free in steady state, asserted
// by the shard package's zero-alloc test). A partial batch never
// waits longer than FlushInterval — an idle flusher sweeps outboxes —
// and Sync flushes everything before draining, so batching changes
// throughput, never visibility at quiescence.
//
// Batching loses when it cannot fill: a latency-sensitive workload
// writing sparsely across many idle spaces pays up to FlushInterval of
// staging delay per update for no aggregation win, and FlushSize 1
// (which disables batching) is the better setting there. It wins when
// load concentrates — many writes per shard per interval, as in the
// zipf-skewed multi-tenant workloads workload.GenerateMulti produces —
// where it amortizes the engine's per-message handoff across dozens of
// envelopes (Metrics reports the achieved Envelopes per Batches).
//
// # Observability
//
// Every runtime answers "what is the protocol doing" through one
// schema: Metrics (Cluster.Metrics, LiveClientServer.Metrics,
// ShardedSystem.Metrics, and wire.Client.Metrics across process
// boundaries) is a point-in-time snapshot of legacy totals plus — when
// the registry is armed — per-replica delivery/stall/recheck/ingest-drop
// counters, per-directed-edge traffic attribution ("0->1": sent, bytes,
// delivered, dropped, duped, retransmitted), and inbox-depth gauges with
// high-water marks. The stall and recheck counters are the observable
// texture of the paper's false-dependency analysis: a delivery that
// applies nothing buffered waiting for its causal past, and a delivery
// that releases previously parked updates on recheck.
//
// Arming is explicit (ClusterOptions.Metrics, ShardOptions.Metrics, a
// wire node's StatusAddr) because the default must cost nothing: with
// the registry disarmed every instrumentation site reduces to one nil
// check, held to zero allocations by the same gated-benchmark
// discipline as the chaos hooks. Armed, counters are lock-free atomics
// on the hot path and Snapshot is safe under concurrent scrape.
//
// The same snapshot is servable over HTTP: a wire node with
// NodeOptions.StatusAddr (or prcc-node -status) exposes /statusz (full
// snapshot, indented JSON) and /metricsz (flat "replica.0.delivered"
// -> number pairs for scrapers); prcc-sim -status serves the live
// cluster mid-run and prcc-client status polls a deployed cluster into
// the same schema. Metrics only report: no routing or delivery decision
// reads them.
//
// Beyond the protocol itself the package exposes the paper's analyses:
// metadata sizing and compression (Section 5), conflict-graph lower bounds
// on timestamp size (Section 4), baseline protocols for comparison, the
// client-server architecture (Appendix E), and the Appendix D
// optimizations (dummy registers, ring breaking, loop truncation).
//
// # Performance
//
// There is one replica implementation. Section 2.1 defines a single
// prototype — store registers, buffer received updates, apply one when
// predicate J holds, merge its timestamp — and core.Prototype is that
// prototype once: ingest guards, buffering, draining, reads, pending
// accounting and checkpointing. A protocol is the prototype plus a clock
// (core.Clock: the vector, advance, merge, J) and a router (core.Router:
// whom a write reaches, what an applied update materializes and
// forwards). The Section 3.3 algorithm, its dummy-register and truncated
// variants, the four baselines and the Appendix D relaying placements
// (ring breaking included) differ in nothing else. A client-server
// replica (Section 6) is the same node over the augmented timestamp
// graphs with a client layer on top that buffers requests behind J1/J2
// and raises τ by the client's timestamp before a write.
//
// The prototype's drain exploits a shape every one of those predicates
// shares: for a fixed (receiver i, sender k) pair J requires one counter
// of the update's timestamp to be exactly one past one counter of τ_i —
// for the edge-indexed clock, τ_i[e_ki] = T[e_ki] − 1 — and every update
// k sends to i advances the former by exactly one. The counter carried in
// an update's metadata is therefore a consecutive per-receiver sequence
// number, and at most one buffered update per sender can ever be
// deliverable. Each replica files buffered updates in per-sender queues
// keyed by that number; an out-of-order arrival is a single O(1) map
// insert, and applying an update re-examines only the sender heads the
// clock says the merge can have unblocked (for the edge-indexed clock, a
// set precomputed per topology). The reference full-buffer rescan is the
// same node with one flag set, reachable through core.NewEdgeIndexedNaive,
// the baselines' *Rescan constructors and Prototype.Rescan. Both drains
// apply the lowest-numbered deliverable sender first, so one delivery's
// applies and relay forwards come out in one order, and differential tests
// assert the two produce identical measurements on every schedule.
//
// The protocol⇄runtime boundary is an emit contract: instead of
// allocating and returning an envelope slice per write, a node pushes
// each outgoing message into the runtime's sink (core.Sink), referencing
// node-owned scratch — the encoded metadata buffer is reused across
// writes and the recipient list is cached per register. A sink that
// buffers an envelope copies its metadata through a recycling pool and
// returns the copy once the message has been ingested, so the entire
// write fanout — envelope, metadata, recipients — is allocation-free in
// steady state (asserted by TestWriteFanoutSteadyStateZeroAlloc and
// BenchmarkWriteFanout).
//
// Underneath, the remaining per-operation layers are allocation-free the
// same way: timestamps advance and merge in place, arriving metadata is
// decoded into node scratch, buffered updates keep recycled copies of
// their wire bytes (one decoded vector per sender), the in-flight message
// pool removes by head index with amortized compaction (O(1) for the
// oldest or newest pick) while preserving message order bit-for-bit, and
// the simulator indexes its bookkeeping by the dense causality.UpdateID
// instead of maps.
//
// The consistency oracle fixes each update's causal past at issue time
// (Definition 1) — once a full bitset clone per issue, O(ops²/8) bytes
// per audited run and the dominant cost at 50k-op scale. It now stores
// each past as a per-issuer dependency vector: entry k is the highest
// update of replica k in the past. That is exact because every causal
// past is prefix-closed per issuer (a replica applies its own updates
// before issuing the next, and ↪ is transitive), so the oracle is a set
// of Fidge/Mattern clocks over issuers, built from issue and apply
// events alone and independent of the protocol's timestamps. An issue
// copies one n-entry vector; happened-before and the causal-past size
// read one; the per-apply safety check, the false-dependency query and
// the stale-access check compare one against the head of a per-(replica,
// issuer) queue of not-yet-applied updates. Only a violation walks those
// queues to name the missing predecessors. Auditing therefore stays on
// by default at scale; the flat-bitset tracker survives only in
// internal/causality's tests, as the reference the vectors are pinned
// to event by event. Runs that want no verdict at all can still skip
// auditing with SimOptions.SkipAudit / ClusterOptions.SkipAudit.
//
// # Placement optimization and reconfiguration
//
// The Appendix D observation behind Figure 13 — removing one register
// from a ring and relaying its writes the long way around collapses the
// cycle's timestamp entries — generalizes into a search problem: which
// registers should be broken, and along which relay routes, to minimize
// the metadata the whole system tracks? System.Optimize runs that
// search: seeded hill-climbing with random restarts over placements,
// where a move breaks one more register (building a relay route over
// the edges that survive) or un-breaks one, each candidate re-scored by
// rebuilding the effective share graph's timestamp graphs and summing
// tracked entries. Entries can be priced per edge
// (OptimizeOptions.EdgeWeight) so the search prefers breaking cycles
// whose edges are expensive, and the result can be checked against the
// Section 4 lower bound. On rings the search rediscovers the paper's
// line topology (2n² entries down to 4n−4, within 2× of the cycle
// closed form); on sparse random graphs (two holders per register) it
// strictly improves, and on dense ones, which have no safe route, it
// returns the input placement.
//
// A broken register's writes are stored at the writer, then forwarded
// hop by hop along the route through per-hop relay registers shared by
// consecutive holders; each holder on the route materializes the value
// when the relayed write arrives. Relay registers ride the ordinary
// protocol, so causal consistency is preserved without tracking the
// broken register's cycle exactly when no route has a bypass: every
// interior route member must separate, in the effective share graph,
// the members before it from those after it. Placement.Validate checks
// this and the search takes no move that fails it.
//
// Cluster.Reconfigure makes the search's result deployable on a LIVE
// cluster: a two-phase epoch fence blocks client writes, drains every
// in-flight delivery to quiescence, carries each replica's register
// contents into fresh nodes of the new placement's protocol (timestamps
// restart from zero — the quiesced frontier is causally closed, the
// protocol's own initial-state assumption), and swaps the nodes. The
// fence refuses to run over crashed replicas, parked partition traffic,
// or any live undeliverable buffered update (a liveness bug it must not
// paper over). Differential tests pin a mid-run reconfiguration to the
// byte-identical final state of a never-reconfigured run, with zero
// oracle violations, both on clean executions and under drop/duplicate
// chaos with partitions and crash/restart.
//
// # Loop search
//
// Definition 5 timestamp graphs need an (i, e_jk)-loop existence decision
// per replica and non-incident edge. The original formulation enumerates
// simple loops through i — exponential in replica count, and in practice
// unable to finish sharegraph.RandomK(32, 96, 3, 7) untruncated. Builds
// now run on an exact engine (sharegraph.NewLoopSearcher /
// NewAugmentedLoopSearcher) that never enumerates loops. It canonicalizes
// register sets to word masks over the registers that actually appear in
// shared edge sets (private registers cannot affect any side condition),
// and searches l-paths as a Pareto fixpoint over (vertex, interior-mask)
// states: every Definition 4 side condition has the form "X − S ≠ ∅" for
// an S that only grows along the path, so feasibility is antitone in the
// interior mask and each vertex needs only an antichain of ⊆-minimal
// masks — dominated states are pruned instead of explored. States whose
// mask already covers X_jk or every usable first r-hop label die at depth
// 1. The r-side needs no search at all: a hop into an l-path interior
// vertex v carries a label inside X_v ⊆ interior, so conditions (ii)/(iii)
// already exclude the l-path and deciding the r-path is one BFS over
// filter-passing edges per undominated arrival at k. Two pre-filters do
// not depend on the owner i, so a build asks every owner about one edge
// in a row and computes them once: the l-path may only use k's component
// of G − j (labelled once per j), and one r-side BFS from j against the
// empty l-path, run with no target, marks every owner an r-path could
// ever close onto (once per edge). The augmented engine (Definition 27)
// appends visited-vertex bits to the state mask, since client-pair hops
// bypass the register filter. The untruncated RandomK(32, 96, 3, 7) build
// dropped from not finishing to about 26 ms, so dense-topology benchmarks,
// prcc-graph and the simulator all run the exact protocol rather than the
// Appendix D sacrificed-causality variant. LoopOptions.MaxLen truncation
// (Appendix D) runs on the same engine: each state also records its
// l-path depth, and dominance becomes
// the product order over (mask ⊆, depth ≤), so a state with a smaller
// interior but a longer l-path no longer subsumes a shorter one. Walk
// shortcutting shrinks both the interior and the length, so the pruning
// stays exact; the breadth-first queue pops states in nondecreasing depth,
// so eviction happens only within a layer; and the r-side BFS stops at the
// room the l-path leaves, closing on the shortest r-path. Truncated
// RandomK(32, 96, 3, 7) builds went from seconds to about 38 ms. Both
// figures are BuildAllTSGraphs medians on a 2-vCPU Intel Xeon. The
// enumerating DFS lives on only in the package's tests, as the reference the
// differential and fuzz tests hold the engine byte-identical to at every
// MaxLen, plain and augmented.
//
// Scale benchmarks covering 32- and 64-replica topologies at up to 100k
// operations live in the root bench harness:
//
//	go test -run xxx -bench 'BenchmarkScaleDelivery|BenchmarkDrainOutOfOrder' -benchmem .
//
// The dense random topology runs both truncated (randomk32_5k, the
// Appendix D variant) and untruncated (randomk32_5k_exact) so the cost of
// exact causality tracking stays measured. Performance claims are made
// with benchmark/ (see its README), not with these rows.
package prcc

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/obs"
	"repro/internal/optimize"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Register names a shared read/write register.
type Register = sharegraph.Register

// ReplicaID identifies a replica (0-based).
type ReplicaID = sharegraph.ReplicaID

// Value is the content of a register write.
type Value = core.Value

// Violation is a detected causal-consistency violation.
type Violation = causality.Violation

// Metrics is the unified metrics snapshot every runtime returns —
// Cluster.Metrics, LiveClientServer.Metrics, ShardedSystem.Metrics and
// wire.Client.Metrics all produce this one schema, and it is exactly
// the JSON served on /statusz. Legacy totals (messages, meta bytes,
// outstanding) are always present; per-replica and per-edge breakdowns
// appear only on runtimes that armed the registry
// (ClusterOptions.Metrics / ShardOptions.Metrics / a node's
// StatusAddr). See the Observability package section.
type Metrics = obs.Snapshot

// ReplicaMetrics is the per-replica slice of a Metrics snapshot.
type ReplicaMetrics = obs.ReplicaMetrics

// EdgeMetrics is the per-directed-edge entry of a Metrics snapshot,
// keyed "from->to".
type EdgeMetrics = obs.EdgeMetrics

// QueueMetrics is the per-engine-queue entry of a Metrics snapshot,
// present when queues are not 1:1 with replicas (the sharded runtime).
type QueueMetrics = obs.QueueMetrics

// FaultPlan seeds the runtime's deterministic fault lottery: per-edge
// drop/duplication probabilities, the retransmit policy, and the
// lottery seed. The zero value injects no ambient faults but still arms
// the Partition/Crash/Checkpoint/Restart controls.
type FaultPlan = rt.FaultPlan

// EdgeFault is the per-edge loss/duplication probability pair of a
// FaultPlan.
type EdgeFault = rt.EdgeFault

// System is a partially replicated shared-memory configuration: the
// placement, its derived share and timestamp graphs, and the edge-indexed
// protocol instance. Systems are immutable and safe to share.
type System struct {
	graph    *sharegraph.Graph
	tsgraphs []*sharegraph.TSGraph
	protocol *core.EdgeIndexed
}

// New builds a System from a register placement: stores[i] lists the
// registers replicated at replica i.
func New(stores [][]Register) (*System, error) {
	g, err := sharegraph.New(stores)
	if err != nil {
		return nil, fmt.Errorf("prcc: %w", err)
	}
	graphs := sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{})
	p, err := core.NewEdgeIndexedWithGraphs(g, graphs, "edge-indexed")
	if err != nil {
		return nil, fmt.Errorf("prcc: %w", err)
	}
	return &System{graph: g, tsgraphs: graphs, protocol: p}, nil
}

// NumReplicas returns the number of replicas.
func (s *System) NumReplicas() int { return s.graph.NumReplicas() }

// Registers lists every register in the system, sorted.
func (s *System) Registers() []Register { return s.graph.Registers() }

// Stores reports whether replica i stores register x.
func (s *System) Stores(i ReplicaID, x Register) bool {
	return s.graph.StoresRegister(i, x)
}

// Holders returns the replicas storing register x.
func (s *System) Holders(x Register) []ReplicaID { return s.graph.Holders(x) }

// MetadataEntries returns |E_i| — the number of integer counters in
// replica i's timestamp, the quantity the paper's lower bounds govern.
func (s *System) MetadataEntries(i ReplicaID) int { return s.tsgraphs[i].Len() }

// TrackedEdges renders replica i's timestamp-graph edges (Definition 5) in
// e(j->k) notation.
func (s *System) TrackedEdges(i ReplicaID) []string {
	edges := s.tsgraphs[i].Edges()
	out := make([]string, len(edges))
	for p, e := range edges {
		out[p] = e.String()
	}
	return out
}

// ShareGraph renders the placement and share graph for inspection.
func (s *System) ShareGraph() string { return s.graph.String() }

// ClusterOptions configures the live worker-pool runtime. The zero value
// selects the defaults documented per field.
type ClusterOptions struct {
	// Workers is the delivery worker-pool size. The default (zero) is
	// GOMAXPROCS but at least 2; an explicit count is used as given.
	Workers int
	// InboxCapacity bounds each replica's inbox (default 1024). Client
	// writes block while a destination inbox is full — the backpressure
	// contract.
	InboxCapacity int
	// MaxDelay adds an artificial per-delivery delay of up to this
	// duration (default 0). Reordering does not need it — the inbox
	// shuffle reorders regardless — but stress tests use it to hold
	// messages in flight longer.
	MaxDelay time.Duration
	// Seed drives the per-inbox delivery shuffles (default 1).
	Seed int64
	// SkipAudit disables the causality oracle for runs that want no
	// verdict at all. Auditing is cheap by default — the oracle keeps one
	// n-entry dependency vector per update instead of cloning a bitset
	// per issue — so this is a choice, not a necessity, even at 100k-op
	// scale. Check reports nothing on an unaudited cluster.
	SkipAudit bool
	// Chaos, when non-nil, arms the fault-injection layer with the given
	// plan. The zero FaultPlan injects no ambient faults but enables the
	// Partition/Crash/Checkpoint/Restart controls; without Chaos those
	// methods return an error. See the Robustness package section.
	Chaos *FaultPlan
	// Metrics arms the observability registry: per-replica delivery and
	// stall counters, per-edge traffic attribution, and inbox-depth
	// gauges, all readable via Cluster.Metrics. Disarmed (the default)
	// the instrumentation is a nil check on the delivery path — zero
	// allocations, held there by a gated benchmark.
	Metrics bool
}

func (o ClusterOptions) simOptions() []sim.ClusterOption {
	var opts []sim.ClusterOption
	if o.Workers > 0 {
		opts = append(opts, sim.WithWorkers(o.Workers))
	}
	if o.InboxCapacity > 0 {
		opts = append(opts, sim.WithInboxCapacity(o.InboxCapacity))
	}
	if o.MaxDelay > 0 {
		opts = append(opts, sim.WithMaxDelay(o.MaxDelay))
	}
	if o.Seed != 0 {
		opts = append(opts, sim.WithSeed(o.Seed))
	}
	if o.SkipAudit {
		opts = append(opts, sim.WithoutAudit())
	}
	if o.Chaos != nil {
		opts = append(opts, sim.WithChaos(*o.Chaos))
	}
	if o.Metrics {
		opts = append(opts, sim.WithMetrics())
	}
	return opts
}

// Cluster starts a live worker-pool cluster running the edge-indexed
// protocol with default options, audited by the happened-before oracle.
func (s *System) Cluster() (*Cluster, error) {
	return s.ClusterWith(ClusterOptions{})
}

// ClusterWith starts a live worker-pool cluster with explicit runtime
// options.
func (s *System) ClusterWith(opts ClusterOptions) (*Cluster, error) {
	c, err := sim.NewCluster(s.graph, s.protocol, opts.simOptions()...)
	if err != nil {
		return nil, fmt.Errorf("prcc: %w", err)
	}
	return &Cluster{inner: c}, nil
}

// Cluster is a running shared-memory deployment.
type Cluster struct {
	inner *sim.Cluster
}

// Write performs a client write at replica r. It fails if r is outside
// [0,n) or does not store x.
func (c *Cluster) Write(r ReplicaID, x Register, v Value) error {
	return c.inner.Write(r, x, v)
}

// Read returns replica r's local copy of x (reads never block; this is
// the causal-consistency read of the replica prototype).
func (c *Cluster) Read(r ReplicaID, x Register) (Value, bool) {
	return c.inner.Read(r, x)
}

// Sync blocks until all in-flight updates have been delivered and applied.
func (c *Cluster) Sync() { c.inner.Quiesce() }

// Check audits the execution so far against replica-centric causal
// consistency (Definition 2) using the ground-truth happened-before
// oracle; it returns an error describing the first violation, if any.
// Call Sync first to include liveness at quiescence. On a cluster built
// with ClusterOptions.SkipAudit there is no oracle and Check reports
// nothing.
func (c *Cluster) Check() error {
	t := c.inner.Tracker()
	if t == nil {
		return nil
	}
	vs := t.Violations()
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, 0, len(vs))
	for _, v := range vs {
		msgs = append(msgs, v.String())
	}
	return fmt.Errorf("prcc: %d violations: %s", len(vs), strings.Join(msgs, "; "))
}

// Metrics returns the cluster's unified metrics snapshot: legacy totals
// always, per-replica and per-edge breakdowns when
// ClusterOptions.Metrics armed the registry.
func (c *Cluster) Metrics() Metrics { return c.inner.Metrics() }

// Workers returns the delivery worker-pool size.
func (c *Cluster) Workers() int { return c.inner.Workers() }

// Outstanding returns the number of in-flight messages (buffered or being
// delivered). After Close it is zero.
func (c *Cluster) Outstanding() int { return c.inner.Outstanding() }

// Close shuts the cluster down after draining in-flight deliveries; no
// goroutines outlive it.
func (c *Cluster) Close() { c.inner.Close() }

// Partition cuts the links between a and b in both directions; messages
// crossing a cut edge park at the transport and deliver at heal time.
// healAfter > 0 schedules an automatic heal, 0 cuts until Heal/HealAll.
// It errors on a cluster built without ClusterOptions.Chaos, and for a
// replica outside [0,n), as do the other recovery and partition
// controls.
func (c *Cluster) Partition(a, b ReplicaID, healAfter time.Duration) error {
	return c.inner.Partition(a, b, healAfter)
}

// PartitionOneWay cuts only the from→to direction: an asymmetric link.
func (c *Cluster) PartitionOneWay(from, to ReplicaID, healAfter time.Duration) error {
	return c.inner.PartitionOneWay(from, to, healAfter)
}

// Heal restores both directions between a and b, flushing parked
// messages.
func (c *Cluster) Heal(a, b ReplicaID) error { return c.inner.Heal(a, b) }

// HealAll removes every cut in the cluster.
func (c *Cluster) HealAll() error { return c.inner.HealAll() }

// Checkpoint snapshots replica r — protocol state plus the oracle's
// causal bookkeeping — and begins retaining r's subsequent local events
// so a later Crash/Restart can replay them. Re-checkpointing truncates
// the retention log.
func (c *Cluster) Checkpoint(r ReplicaID) error { return c.inner.Checkpoint(r) }

// Crash takes replica r down: reads and writes at r fail, and every
// message addressed to it parks at its node boundary until Restart.
func (c *Cluster) Crash(r ReplicaID) error { return c.inner.Crash(r) }

// Restart recovers a crashed replica by state transfer from its last
// Checkpoint plus retention-log replay, then re-sends the messages
// parked at it while it was down. It errors if r is up or was never
// checkpointed.
func (c *Cluster) Restart(r ReplicaID) error { return c.inner.Restart(r) }

// FaultStats reports the fault layer's counters: transmissions diverted
// to the retransmitter and duplicate deliveries injected. Both are zero
// on a cluster built without ClusterOptions.Chaos.
func (c *Cluster) FaultStats() (dropped, duped uint64) {
	if f := c.inner.Faults(); f != nil {
		return f.Dropped(), f.Duped()
	}
	return 0, 0
}

// Reconfigure switches the running cluster onto a different placement
// of the same registers — typically one found by System.Optimize — via
// a two-phase epoch fence: client writes are blocked, every in-flight
// delivery drains to quiescence, each replica's register contents are
// carried into a fresh node of the new placement's protocol (timestamps
// restart from zero — the quiesced frontier is causally closed, which
// is exactly the protocol's initial-state assumption), and the nodes
// are swapped. Causal consistency holds across the fence; differential
// tests pin the final state byte-equal to a never-reconfigured run,
// plain and under chaos.
//
// Reconfigure fails, leaving the cluster untouched, if any replica is
// down (restart it first) or a cut edge still holds parked messages
// (heal partitions first). Recovery checkpoints reference
// the old epoch's timestamp space and are discarded; re-checkpoint
// afterwards.
func (c *Cluster) Reconfigure(p *Placement) error {
	if p == nil {
		return fmt.Errorf("prcc: reconfigure: nil placement")
	}
	proto, err := p.Protocol("reconfigured")
	if err != nil {
		return fmt.Errorf("prcc: reconfigure: %w", err)
	}
	return c.inner.Reconfigure(proto)
}

// ProtocolKind selects a protocol for Simulate.
type ProtocolKind int

// Protocols available to Simulate.
const (
	// EdgeIndexedProtocol is the paper's Section 3.3 algorithm.
	EdgeIndexedProtocol ProtocolKind = iota + 1
	// MatrixProtocol is the R×R matrix-clock baseline (safe, quadratic).
	MatrixProtocol
	// BroadcastProtocol is the dummy-register full-replication emulation.
	BroadcastProtocol
	// NaiveVectorProtocol is the classic length-R vector baseline
	// (safe but not live under partial replication).
	NaiveVectorProtocol
	// FIFOOnlyProtocol is the per-channel sequencing baseline
	// (violates causal safety).
	FIFOOnlyProtocol
)

func (k ProtocolKind) String() string {
	switch k {
	case EdgeIndexedProtocol:
		return "edge-indexed"
	case MatrixProtocol:
		return "matrix"
	case BroadcastProtocol:
		return "dummy-broadcast"
	case NaiveVectorProtocol:
		return "naive-vector"
	case FIFOOnlyProtocol:
		return "fifo-only"
	default:
		return fmt.Sprintf("ProtocolKind(%d)", int(k))
	}
}

// SimOptions configures a deterministic simulation.
type SimOptions struct {
	// Protocol defaults to EdgeIndexedProtocol.
	Protocol ProtocolKind
	// Ops is the number of client operations (default 200).
	Ops int
	// ReadFraction in [0,1] (default 0).
	ReadFraction float64
	// Seed drives workload and schedule (default 1).
	Seed int64
	// Adversarial uses LIFO (maximally reordering) delivery instead of
	// seeded-random.
	Adversarial bool
	// TrackFalseDeps enables false-dependency accounting (slower).
	TrackFalseDeps bool
	// SkipAudit disables the causality oracle for pure-throughput runs
	// (see ClusterOptions.SkipAudit); Violations stays empty and
	// TrackFalseDeps is ignored.
	SkipAudit bool
}

// ReportCore is the verdict shared by every run report — SimReport,
// ClusterReport and ChaosReport embed it, so the oracle's violations,
// the liveness debt at quiescence and the metadata cost always live in
// the same fields with the same Ok predicate, regardless of which
// runtime produced the run.
type ReportCore struct {
	// Violations is the happened-before oracle's verdict: safety
	// violations plus liveness failures. Empty on unaudited runs.
	Violations []Violation
	// StuckUpdates is the buffered-update count at quiescence that the
	// run treats as liveness debt (chaos runs report injected-duplicate
	// residue separately, as ChaosReport.PendingBuffered).
	StuckUpdates int
	// MetaBytes is the total timestamp metadata shipped.
	MetaBytes int64
}

// Ok reports a clean run: no violations and no stuck updates.
func (r ReportCore) Ok() bool { return len(r.Violations) == 0 && r.StuckUpdates == 0 }

// SimReport is the outcome of a deterministic simulation.
type SimReport struct {
	ReportCore
	Protocol         string
	Writes           int
	Applies          int
	Messages         int
	MetaOnlyMessages int
	AvgMetaBytes     float64
	FalseDeps        int
	EntriesPerNode   []int
}

// protocolFor builds the protocol instance a ProtocolKind selects.
func (s *System) protocolFor(k ProtocolKind) (core.Protocol, error) {
	switch k {
	case EdgeIndexedProtocol, 0:
		return s.protocol, nil
	case MatrixProtocol:
		return baseline.NewMatrix(s.graph), nil
	case BroadcastProtocol:
		return baseline.NewBroadcast(s.graph), nil
	case NaiveVectorProtocol:
		return baseline.NewNaiveVector(s.graph), nil
	case FIFOOnlyProtocol:
		return baseline.NewFIFOOnly(s.graph), nil
	default:
		return nil, fmt.Errorf("prcc: unknown protocol %v", k)
	}
}

// Simulate runs a seeded workload under a deterministic scheduler and
// returns measurements plus the oracle's verdicts.
func (s *System) Simulate(opts SimOptions) (SimReport, error) {
	p, err := s.protocolFor(opts.Protocol)
	if err != nil {
		return SimReport{}, err
	}
	ops := opts.Ops
	if ops == 0 {
		ops = 200
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	script, err := workload.Generate(s.graph, workload.Options{
		Ops: ops, ReadFraction: opts.ReadFraction, Seed: seed,
	})
	if err != nil {
		return SimReport{}, fmt.Errorf("prcc: %w", err)
	}
	var sched transport.Scheduler = transport.NewRandom(seed)
	if opts.Adversarial {
		sched = transport.LIFOScheduler{}
	}
	res, err := sim.Run(sim.Config{
		Graph: s.graph, Protocol: p, Script: script,
		Sched: sched, TrackFalseDeps: opts.TrackFalseDeps,
		SkipAudit: opts.SkipAudit,
	})
	if err != nil {
		return SimReport{}, fmt.Errorf("prcc: %w", err)
	}
	return SimReport{
		ReportCore: ReportCore{
			Violations:   res.Violations,
			StuckUpdates: res.StuckPending,
			MetaBytes:    int64(res.MetaBytes),
		},
		Protocol:         res.Protocol,
		Writes:           res.Writes,
		Applies:          res.Applies,
		Messages:         res.MessagesSent,
		MetaOnlyMessages: res.MetaOnlyMessages,
		AvgMetaBytes:     res.AvgMetaBytes(),
		FalseDeps:        res.FalseDepUpdates,
		EntriesPerNode:   res.MetadataEntriesPerReplica,
	}, nil
}

// RunClusterOptions configures a live end-to-end run.
type RunClusterOptions struct {
	// Protocol defaults to EdgeIndexedProtocol.
	Protocol ProtocolKind
	// Ops is the number of client operations (default 200).
	Ops int
	// ReadFraction in [0,1] (default 0).
	ReadFraction float64
	// Seed drives workload generation (default 1).
	Seed int64
	// Cluster configures the worker-pool runtime.
	Cluster ClusterOptions
}

// ClusterReport is the outcome of a live cluster run.
type ClusterReport struct {
	ReportCore
	Protocol string
	Workers  int
	Writes   int
	Messages int64
}

// RunCluster drives a seeded workload through a live worker-pool cluster
// — concurrent per-replica drivers under real goroutine interleaving and
// inbox backpressure — then quiesces, audits with the oracle, and shuts
// the cluster down. It is the live counterpart of Simulate: same
// workloads and verdicts, scheduled by the runtime instead of a
// deterministic scheduler.
func (s *System) RunCluster(opts RunClusterOptions) (ClusterReport, error) {
	p, err := s.protocolFor(opts.Protocol)
	if err != nil {
		return ClusterReport{}, err
	}
	ops := opts.Ops
	if ops == 0 {
		ops = 200
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	script, err := workload.Generate(s.graph, workload.Options{
		Ops: ops, ReadFraction: opts.ReadFraction, Seed: seed,
	})
	if err != nil {
		return ClusterReport{}, fmt.Errorf("prcc: %w", err)
	}
	c, err := sim.NewCluster(s.graph, p, opts.Cluster.simOptions()...)
	if err != nil {
		return ClusterReport{}, fmt.Errorf("prcc: %w", err)
	}
	violations := c.RunScript(script)
	report := ClusterReport{
		ReportCore: ReportCore{
			Violations:   violations,
			StuckUpdates: c.PendingTotal(),
			MetaBytes:    c.MetaBytes(),
		},
		Protocol: p.Name(),
		Workers:  c.Workers(),
		Writes:   script.Writes(),
		Messages: c.MessagesSent(),
	}
	c.Close()
	return report, nil
}

// ChaosOptions configures an orchestrated chaos run: a seeded workload
// executed in three phases on a live cluster, with faults injected at
// the phase boundaries and recovery before the audit.
type ChaosOptions struct {
	// Protocol defaults to EdgeIndexedProtocol. Crash recovery requires
	// a checkpointable protocol; of the built-ins only the edge-indexed
	// engine is.
	Protocol ProtocolKind
	// Ops is the number of client operations (default 600).
	Ops int
	// ReadFraction in [0,1] (default 0).
	ReadFraction float64
	// Seed drives the workload and, unless Plan.Seed overrides it, the
	// fault lottery (default 1).
	Seed int64
	// Plan is the ambient loss/duplication lottery applied for the whole
	// run. A zero Plan.Seed inherits Seed.
	Plan FaultPlan
	// Partition, when true, cuts PartitionA↔PartitionB in both
	// directions after the first third of the workload. PartitionHeal >
	// 0 schedules the heal; otherwise the cut lasts until the end-of-run
	// HealAll.
	Partition              bool
	PartitionA, PartitionB ReplicaID
	PartitionHeal          time.Duration
	// Crash, when true, checkpoints CrashReplica up front, crashes it
	// after the first third, and restarts it by state transfer after the
	// second. The victim's middle-third operations are deferred to the
	// final third, preserving its per-replica program order.
	Crash        bool
	CrashReplica ReplicaID
	// Cluster configures the underlying runtime. Its Chaos field is
	// ignored — Plan above wins.
	Cluster ClusterOptions
}

// ChaosReport is the outcome of a chaos run. Its embedded
// ReportCore.StuckUpdates is always zero: buffered residue under
// injected duplication is not liveness debt (the oracle's liveness
// audit in Violations is the judge), so it is reported separately as
// PendingBuffered and Ok reduces to the oracle's verdict.
type ChaosReport struct {
	ReportCore
	Messages int64
	// Dropped counts transmissions diverted to the retransmitter; Duped
	// counts injected duplicate deliveries.
	Dropped uint64
	Duped   uint64
	// PendingBuffered is the buffered-update count at quiescence.
	// Injected duplicates park dead in the ingest queues and stay
	// counted here without being liveness debt — the liveness audit in
	// Violations is the judge, so a nonzero count under duplication is
	// expected, not a failure.
	PendingBuffered int
}

// RunChaos drives a seeded workload through a live cluster under the
// configured faults: phase one runs under the ambient loss/duplication
// lottery alone, the partition cut and crash land at the one-third
// boundary, recovery at two-thirds, then every cut heals, the cluster
// quiesces, and the oracle audits. Transient faults never excuse a
// verdict — every cut heals and every crash restarts before the audit,
// so zero violations (including liveness) is the pass criterion.
func (s *System) RunChaos(opts ChaosOptions) (ChaosReport, error) {
	p, err := s.protocolFor(opts.Protocol)
	if err != nil {
		return ChaosReport{}, err
	}
	ops := opts.Ops
	if ops == 0 {
		ops = 600
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	script, err := workload.Generate(s.graph, workload.Options{
		Ops: ops, ReadFraction: opts.ReadFraction, Seed: seed,
	})
	if err != nil {
		return ChaosReport{}, fmt.Errorf("prcc: %w", err)
	}
	plan := opts.Plan
	if plan.Seed == 0 {
		plan.Seed = seed
	}
	cl := opts.Cluster
	cl.Chaos = nil
	if cl.Seed == 0 {
		cl.Seed = seed
	}
	res, err := sim.RunChaos(sim.ChaosConfig{
		Graph: s.graph, Protocol: p, Script: script,
		Plan:      plan,
		Partition: opts.Partition, PartitionA: opts.PartitionA,
		PartitionB: opts.PartitionB, PartitionHeal: opts.PartitionHeal,
		Crash: opts.Crash, CrashReplica: opts.CrashReplica,
		Opts: cl.simOptions(),
	})
	if err != nil {
		return ChaosReport{}, fmt.Errorf("prcc: %w", err)
	}
	return ChaosReport{
		ReportCore: ReportCore{
			Violations: res.Violations,
			MetaBytes:  res.MetaBytes,
		},
		Messages:        res.MessagesSent,
		Dropped:         res.Dropped,
		Duped:           res.Duped,
		PendingBuffered: res.PendingTotal,
	}, nil
}

// CompressionReport describes Section 5 timestamp compression for one
// replica.
type CompressionReport struct {
	Replica    ReplicaID
	Entries    int
	Compressed int
}

// Compression analyzes timestamp compression for every replica.
func (s *System) Compression() []CompressionReport {
	reports := optimize.AnalyzeAll(s.graph, s.tsgraphs)
	out := make([]CompressionReport, len(reports))
	for i, r := range reports {
		out[i] = CompressionReport{Replica: r.Replica, Entries: r.Entries, Compressed: r.Compressed}
	}
	return out
}

// LowerBound computes the Section 4 conflict-clique lower bound on the
// timestamp space of replica i when each replica issues up to m updates:
// σ_i(m) ≥ m^Exponent. Tight reports whether the algorithm's timestamp
// dimension matches.
type LowerBound struct {
	Exponent int
	Bits     float64
	Tight    bool
	Verified bool
}

// LowerBound computes the bound for replica i with per-edge update budget m.
func (s *System) LowerBound(i ReplicaID, m int) LowerBound {
	b := lowerbound.ComputeBound(s.graph, i, m)
	return LowerBound{Exponent: b.Exponent, Bits: b.Bits(), Tight: b.Tight(), Verified: b.Verified}
}

// OptimizeOptions tunes the System.Optimize placement search. The zero
// value runs the default budget (3 restarts, 64 candidate evaluations,
// unweighted entry counts).
type OptimizeOptions = optimize.SearchOptions

// Placement assigns the system's registers to replicas, with some
// registers "broken" out of the cycles they close: a broken register is
// removed from every store and its writes relayed along an explicit
// route of per-hop relay registers instead, trading relay latency for
// smaller timestamps (the Figure 13 ring-breaking idea generalized to
// arbitrary registers and routes).
type Placement = optimize.Placement

// PlacementResult reports the outcome of a placement search: the best
// placement, its effective share graph, tracked-entry totals before and
// after, and optional Section 4 lower bounds on the result.
type PlacementResult = optimize.SearchResult

// Optimize searches for a placement of the system's registers whose
// effective share graph tracks fewer total timestamp entries: seeded
// hill-climbing with random restarts, where each move breaks one more
// register (relaying it along a route over the surviving edges) or
// un-breaks one, and every candidate is re-scored by rebuilding the
// effective graph's timestamp graphs. The identity placement is always
// a candidate, so the result is never worse than the current system.
// Same seed, same graph, same result.
//
// Optionally weight entries per edge (OptimizeOptions.EdgeWeight) and
// verify the result against the Section 4 lower bound
// (OptimizeOptions.CheckBound). Feed the result's Placement to
// Cluster.Reconfigure to switch a live cluster onto it.
func (s *System) Optimize(opts OptimizeOptions) (*PlacementResult, error) {
	res, err := optimize.Search(s.graph, opts)
	if err != nil {
		return nil, fmt.Errorf("prcc: optimize: %w", err)
	}
	return res, nil
}
