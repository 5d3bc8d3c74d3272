// Package sim drives protocol state machines over the simulated network:
// a deterministic single-threaded runner (seeded/adversarial schedules,
// used by the correctness experiments) and a live worker-pool cluster
// (bounded per-replica inboxes, used to exercise real concurrency at
// scale). Both host their replicas in a Space — the shared in-process
// host that issues update IDs, delivers and audits with the causality
// oracle, captures state and drives scripts. Four in-process hosts build
// on it: Run, Cluster, shard.Runtime, and clientserver.LiveSystem, a
// Cluster whose nodes are Appendix E servers (clientserver.Run's
// deterministic loop hosts its servers in a Space too). Run and Cluster
// collect the metadata metrics the experiments report.
package sim

import (
	"fmt"
	"strings"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Config configures one deterministic run.
type Config struct {
	Graph    *sharegraph.Graph
	Protocol core.Protocol
	Script   workload.Script
	Sched    transport.Scheduler
	// MaxSteps bounds the run as a safety net; 0 derives a generous bound
	// from the script size.
	MaxSteps int
	// SkipAudit disables the causality oracle for runs that want no
	// verdict at all. The oracle keeps one dependency vector per update
	// (n entries, O(n) per check), so audited runs are the default even at
	// 100k-op scale. With SkipAudit, Violations stays nil and
	// TrackFalseDeps is ignored (false dependencies are defined against
	// the oracle's ground truth).
	SkipAudit bool
	// TrackFalseDeps enables per-step oracle queries on pending updates
	// (quadratic-ish cost; off for throughput benchmarks).
	TrackFalseDeps bool
	// CaptureState fills Result.FinalState with each replica's register
	// contents at the end of the run, for differential comparison against
	// other runtimes.
	CaptureState bool
}

// Result holds the measurements of one run.
type Result struct {
	Protocol  string
	Scheduler string
	Steps     int

	// Messages.
	MessagesSent     int
	MetaOnlyMessages int
	MetaBytes        int

	// Updates.
	Writes  int
	Reads   int
	Applies int

	// Consistency verdicts.
	Violations []causality.Violation
	// StuckPending counts updates still buffered at quiescence (delivered
	// but never applicable — the naive-vector liveness failure mode).
	StuckPending int

	// False dependencies: distinct updates that were buffered while the
	// oracle said all their true dependencies were satisfied, and the
	// total number of step-update pairs spent in that state.
	FalseDepUpdates int
	FalseDepDelay   int

	// Metadata sizing.
	MetadataEntriesPerReplica []int
	MaxPending                int

	// FinalState holds each replica's register contents at quiescence
	// (only the registers it genuinely stores). Nil unless
	// Config.CaptureState was set.
	FinalState []map[sharegraph.Register]core.Value

	// Delivery latency, in scheduler steps between an update message
	// being sent and its value being applied at the destination. Relayed
	// protocols (Appendix D ring breaking) pay multiple hops here.
	DeliveryDelayTotal int
	DeliveryDelayMax   int
	DeliveryCount      int
}

// AvgDeliveryDelay returns mean steps from send to apply.
func (r *Result) AvgDeliveryDelay() float64 {
	if r.DeliveryCount == 0 {
		return 0
	}
	return float64(r.DeliveryDelayTotal) / float64(r.DeliveryCount)
}

// AvgMetaBytes returns mean metadata bytes per sent message.
func (r *Result) AvgMetaBytes() float64 {
	if r.MessagesSent == 0 {
		return 0
	}
	return float64(r.MetaBytes) / float64(r.MessagesSent)
}

// TotalMetadataEntries sums per-replica timestamp entry counts.
func (r *Result) TotalMetadataEntries() int {
	total := 0
	for _, n := range r.MetadataEntriesPerReplica {
		total += n
	}
	return total
}

// Ok reports whether the run finished with no violations and no stuck
// updates.
func (r *Result) Ok() bool { return len(r.Violations) == 0 && r.StuckPending == 0 }

// Summary renders a one-line digest.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s: steps=%d writes=%d applies=%d msgs=%d (meta-only %d) metaBytes=%d",
		r.Protocol, r.Scheduler, r.Steps, r.Writes, r.Applies, r.MessagesSent, r.MetaOnlyMessages, r.MetaBytes)
	fmt.Fprintf(&b, " falseDeps=%d stuck=%d violations=%d", r.FalseDepUpdates, r.StuckPending, len(r.Violations))
	return b.String()
}

// Run executes the configured script to quiescence (or MaxSteps) and
// returns measurements plus the oracle's verdicts. The runner interleaves
// client operations and message deliveries under the scheduler's control;
// per-replica operation order follows the script.
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil || cfg.Protocol == nil || cfg.Sched == nil {
		return nil, fmt.Errorf("sim: Graph, Protocol and Sched are required")
	}
	sp, err := NewSpace(cfg.Graph, cfg.Protocol, !cfg.SkipAudit, nil)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	nodes, tracker := sp.nodes, sp.tracker // per-step probes: single-threaded, no locks
	n := len(nodes)
	res := &Result{Protocol: cfg.Protocol.Name(), Scheduler: cfg.Sched.Name()}

	// Per-replica op queues preserving script order.
	queues := make([][]workload.Op, n)
	for _, op := range cfg.Script {
		if int(op.Replica) < 0 || int(op.Replica) >= n {
			return nil, fmt.Errorf("sim: script names invalid replica %d", op.Replica)
		}
		queues[op.Replica] = append(queues[op.Replica], op)
	}

	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		// Every op sends at most n messages; each step consumes an op or a
		// message, so this bound is unreachable absent a protocol bug.
		maxSteps = (len(cfg.Script)+1)*(n+2) + 64
	}

	var pool transport.Pool
	// sink routes emitted envelopes into the in-flight pool, copying each
	// node-owned Meta buffer through a freelist (the core.Sink ownership
	// contract); buffers return to the freelist once their message has
	// been ingested, so the steady-state send→deliver cycle is
	// allocation-free.
	sink := &runnerSink{res: res, pool: &pool, meta: &sp.meta}
	nextVal := core.Value(1)
	// falseDeps tracks oracle IDs that have ever been blocked while
	// oracle-deliverable. UpdateIDs are issued sequentially, so a dense
	// slice replaces the map the runner used to allocate per lookup.
	var falseDeps []bool
	falseDepCount := 0
	// sentAt records the step at which each update was issued, for
	// end-to-end delivery-latency accounting: a relayed update's latency
	// counts from the original write, not the last hop. Indexed by
	// UpdateID; -1 marks updates issued outside this runner.
	var sentAt []int
	// opReplicas is rebuilt in place every step.
	opReplicas := make([]int, 0, n)

	for step := 0; step < maxSteps; step++ {
		// Choices: one per replica with remaining ops, then one per
		// in-flight message.
		opReplicas = opReplicas[:0]
		for r := 0; r < n; r++ {
			if len(queues[r]) > 0 {
				opReplicas = append(opReplicas, r)
			}
		}
		total := len(opReplicas) + pool.Len()
		if total == 0 {
			res.Steps = step
			break
		}
		choice := cfg.Sched.Pick(total)
		if choice < len(opReplicas) {
			r := opReplicas[choice]
			op := queues[r][0]
			queues[r] = queues[r][1:]
			if op.IsRead {
				sp.Read(op.Replica, op.Reg)
				res.Reads++
			} else {
				v := core.Value(op.Val)
				if v == 0 {
					v = nextVal
					nextVal++
				}
				id, err := sp.Write(op.Replica, op.Reg, v, sink)
				if err != nil {
					return nil, fmt.Errorf("sim: %w", err)
				}
				res.Writes++
				for int(id) >= len(sentAt) {
					sentAt = append(sentAt, -1)
				}
				sentAt[id] = step
			}
		} else {
			for _, a := range sp.Deliver(pool.Take(choice-len(opReplicas)), sink) {
				res.Applies++
				if int(a.OracleID) < len(sentAt) && sentAt[a.OracleID] >= 0 {
					d := step - sentAt[a.OracleID]
					res.DeliveryDelayTotal += d
					if d > res.DeliveryDelayMax {
						res.DeliveryDelayMax = d
					}
					res.DeliveryCount++
				}
			}
		}
		if cfg.TrackFalseDeps && tracker != nil {
			for r := 0; r < n; r++ {
				for _, id := range nodes[r].PendingOracleIDs() {
					if tracker.OracleDeliverable(sharegraph.ReplicaID(r), id) {
						res.FalseDepDelay++
						for int(id) >= len(falseDeps) {
							falseDeps = append(falseDeps, false)
						}
						if !falseDeps[id] {
							falseDeps[id] = true
							falseDepCount++
						}
					}
				}
			}
		}
		for r := 0; r < n; r++ {
			if p := nodes[r].PendingCount(); p > res.MaxPending {
				res.MaxPending = p
			}
		}
		res.Steps = step + 1
	}

	for r := 0; r < n; r++ {
		res.MetadataEntriesPerReplica = append(res.MetadataEntriesPerReplica, nodes[r].MetadataEntries())
	}
	res.StuckPending = sp.PendingTotal()
	res.FalseDepUpdates = falseDepCount
	if cfg.CaptureState {
		res.FinalState = sp.State()
	}
	res.Violations = sp.Audit()
	return res, nil
}

// runnerSink is the deterministic runner's core.Sink: it records
// transport metrics and files each emitted envelope into the in-flight
// pool with its metadata copied through the space's recycling pool.
type runnerSink struct {
	res  *Result
	pool *transport.Pool
	meta *transport.BytePool
}

// Emit implements core.Sink.
func (s *runnerSink) Emit(env core.Envelope) {
	s.res.MessagesSent++
	s.res.MetaBytes += len(env.Meta)
	if env.MetaOnly {
		s.res.MetaOnlyMessages++
	}
	env.Meta = s.meta.Copy(env.Meta)
	s.pool.Add(env)
}
