package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"

	"repro/internal/causality"
	"repro/internal/core"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/timestamp"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The per-layer metrics come from three places, all inside this
// directory: spans and gauges the drivers recorded during the traced
// passes, the obs snapshot of the armed passes, and layer replays — the
// workload's own writes pushed single-threaded through one layer's public
// functions with nothing else attached. Every replay runs for every
// workload, on that workload's placement, whether or not its runtime has
// the layer on its path: a layer's cost at this workload's shape is worth
// knowing either way, and README.md says which workloads each layer
// serves. Metrics read from a runtime the workload does not drive are 0.

// replayOpsCap bounds how many ops a replay pushes: per-call costs settle
// long before a full pass's worth.
const replayOpsCap = 24000

// inflightDepth is how many messages the core replay keeps undelivered,
// so that arrivals are out of order and updates buffer as they do under
// the random scheduler.
const inflightDepth = 256

// envSampleCap is how many real envelopes the core replay keeps for the
// timestamp and wire replays.
const envSampleCap = 1024

// perCall runs f(i) for i in [0,n) often enough to fill about 20ms and
// returns nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls, elapsed := 0, time.Duration(0)
	for start := time.Now(); elapsed < 20*time.Millisecond; elapsed = time.Since(start) {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(elapsed.Nanoseconds()) / float64(calls)
}

// replayEvent is one step of the issue/apply trace the core replay leaves
// for the causality replay.
type replayEvent struct {
	apply   bool
	replica sharegraph.ReplicaID
	reg     sharegraph.Register // issue
	id      causality.UpdateID  // apply
}

type coreReplay struct {
	writes, msgs, applied, buffered int
	writeNs, messageNs              float64 // totals
	events                          []replayEvent
	sample                          []core.Envelope // Meta owned by the sample
}

// poolSink is the replay's core.Sink: like the runtimes' sinks it copies
// each node-owned Meta through a recycling pool.
type poolSink struct {
	pool *transport.BytePool
	envs []core.Envelope
}

func (s *poolSink) Emit(env core.Envelope) {
	env.Meta = s.pool.Copy(env.Meta)
	s.envs = append(s.envs, env)
}

// replayCore drives Protocol.NewNodes' state machines directly: blocks of
// 32 writes, then random deliveries until inflightDepth messages remain.
// Blocks, not calls, are timed, so the clock's own cost stays out.
func replayCore(p core.Protocol, script workload.Script) (coreReplay, error) {
	var r coreReplay
	nodes, err := p.NewNodes()
	if err != nil {
		return r, err
	}
	var pool transport.BytePool
	sink := &poolSink{pool: &pool}
	rng := rand.New(rand.NewSource(1))
	var next causality.UpdateID
	deliver := func(keep int) {
		t := time.Now()
		for len(sink.envs) > keep {
			j := rng.Intn(len(sink.envs))
			env := sink.envs[j]
			last := len(sink.envs) - 1
			sink.envs[j] = sink.envs[last]
			sink.envs = sink.envs[:last]
			applied := nodes[env.To].HandleMessage(env, sink)
			r.msgs++
			r.applied += len(applied)
			if len(applied) == 0 {
				r.buffered++
			}
			for _, a := range applied {
				r.events = append(r.events, replayEvent{apply: true, replica: env.To, id: a.OracleID})
			}
			if len(r.sample) < envSampleCap {
				kept := env
				kept.Meta = append([]byte(nil), env.Meta...)
				r.sample = append(r.sample, kept)
			}
			pool.Put(env.Meta) // the node has decoded it
		}
		r.messageNs += float64(time.Since(t).Nanoseconds())
	}
	for i := 0; i < len(script); i += 32 {
		block := script[i:min(i+32, len(script))]
		t := time.Now()
		for _, op := range block {
			if op.IsRead {
				nodes[op.Replica].Read(op.Reg)
				continue
			}
			if err := nodes[op.Replica].HandleWrite(op.Reg, core.Value(op.Val), next, sink); err != nil {
				return r, err
			}
			r.events = append(r.events, replayEvent{replica: op.Replica, reg: op.Reg})
			next++
			r.writes++
		}
		r.writeNs += float64(time.Since(t).Nanoseconds())
		deliver(inflightDepth)
	}
	deliver(0)
	for _, n := range nodes {
		if n.PendingCount() != 0 {
			return r, fmt.Errorf("core replay: replica %d still buffers %d updates after every message was delivered", n.ID(), n.PendingCount())
		}
	}
	return r, nil
}

// replayCausality feeds the oracle the trace the core replay produced,
// timing runs of issues and runs of applies separately.
func replayCausality(g *sharegraph.Graph, events []replayEvent) (issueNs, applyNs, allocPerOp float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr := causality.NewTracker(g)
	var issues, applies int
	var issueT, applyT time.Duration
	for i := 0; i < len(events); {
		j := i
		t := time.Now()
		if events[i].apply {
			for ; j < len(events) && events[j].apply; j++ {
				tr.OnApply(events[j].replica, events[j].id)
			}
			applyT += time.Since(t)
			applies += j - i
		} else {
			for ; j < len(events) && !events[j].apply; j++ {
				tr.OnIssue(events[j].replica, events[j].reg)
			}
			issueT += time.Since(t)
			issues += j - i
		}
		i = j
	}
	runtime.ReadMemStats(&m1)
	tr.CheckLiveness()
	if vs := tr.Violations(); len(vs) > 0 {
		return 0, 0, 0, fmt.Errorf("causality replay: the oracle rejects the core replay's own trace: %v", vs[0])
	}
	if issues == 0 || applies == 0 {
		return 0, 0, 0, nil
	}
	return float64(issueT.Nanoseconds()) / float64(issues), float64(applyT.Nanoseconds()) / float64(applies),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(issues), nil
}

// timedProtocol wraps a protocol so that the time its nodes spend inside
// HandleWrite and HandleMessage adds up in spent: run under sim.Run, that
// is the protocol's share of the runner's wall time on the very schedule
// the runner chose. Single-threaded use only.
type timedProtocol struct {
	core.Protocol
	spent time.Duration
}

type timedNode struct {
	core.Node
	p *timedProtocol
}

func (p *timedProtocol) NewNodes() ([]core.Node, error) {
	nodes, err := p.Protocol.NewNodes()
	for i := range nodes {
		nodes[i] = &timedNode{nodes[i], p}
	}
	return nodes, err
}

func (n *timedNode) HandleWrite(x sharegraph.Register, v core.Value, id causality.UpdateID, out core.Sink) error {
	t := time.Now()
	err := n.Node.HandleWrite(x, v, id, out)
	n.p.spent += time.Since(t)
	return err
}

func (n *timedNode) HandleMessage(env core.Envelope, out core.Sink) []core.Applied {
	t := time.Now()
	applied := n.Node.HandleMessage(env, out)
	n.p.spent += time.Since(t)
	return applied
}

// discardListener accepts connections and throws away whatever arrives.
func discardListener() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.Copy(io.Discard, conn) // ends when the sender closes
				conn.Close()
			}()
		}
	}()
	return ln, nil
}

// layerMetrics computes every per-layer metric of one traced run.
func layerMetrics(w *workloadDef, l *load, ops int, res *runResult, tr *tracer, cfg runConfig) (map[string]metric, error) {
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	n := min(ops, replayOpsCap)
	script := l.scriptOf(n)

	// sharegraph: the exact timestamp-graph build of this placement, and
	// the length-truncated build, which still runs the enumerating DFS.
	g, err := sharegraph.New(l.stores)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	graphs := sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{})
	set("sharegraph.build_exact_s", time.Since(t).Seconds(), "s")
	// The truncated build is the same fixed graph whatever the workload
	// and takes seconds, so only the workload whose layer table lists it
	// pays for it.
	set("sharegraph.build_trunc_s", 0, "s")
	if w.name == "cluster_randomk64" {
		tg := sharegraph.RandomK(32, 96, 3, 7)
		t = time.Now()
		sharegraph.BuildAllTSGraphs(tg, sharegraph.LoopOptions{MaxLen: 4})
		set("sharegraph.build_trunc_s", time.Since(t).Seconds(), "s")
	}
	entries := 0
	for _, tsg := range graphs {
		entries += tsg.Len()
	}
	set("sharegraph.ts_entries_per_replica", float64(entries)/float64(len(graphs)), "count")
	p, err := core.NewEdgeIndexedWithGraphs(g, graphs, "edge-indexed")
	if err != nil {
		return nil, err
	}

	// core, then the layers that replay what it produced.
	cr, err := replayCore(p, script)
	if err != nil {
		return nil, err
	}
	set("core.handle_write_ns", cr.writeNs/float64(max(1, cr.writes)), "ns")
	set("core.handle_message_ns", cr.messageNs/float64(max(1, cr.msgs)), "ns")
	set("core.msgs_per_write", float64(cr.msgs)/float64(max(1, cr.writes)), "ratio")
	set("core.applied_per_message", float64(cr.applied)/float64(max(1, cr.msgs)), "ratio")
	set("core.buffered_share", float64(cr.buffered)/float64(max(1, cr.msgs)), "ratio")

	issueNs, applyNs, oracleAlloc, err := replayCausality(g, cr.events)
	if err != nil {
		return nil, err
	}
	set("causality.issue_ns", issueNs, "ns")
	set("causality.apply_ns", applyNs, "ns")
	set("causality.alloc_bytes_per_op", oracleAlloc, "B/op")

	// timestamp: the four per-message operations at this workload's
	// vector widths, on vectors the replay really sent.
	space := p.Space()
	vecs := make([]timestamp.Vec, len(cr.sample))
	var metaBytes, metaEntries int
	for i, env := range cr.sample {
		if vecs[i], err = timestamp.Decode(env.Meta); err != nil {
			return nil, fmt.Errorf("timestamp replay: %w", err)
		}
		metaBytes += len(env.Meta)
		metaEntries += len(vecs[i])
	}
	var scratch timestamp.Vec
	set("timestamp.decode_ns", perCall(len(cr.sample), func(i int) {
		scratch, _ = timestamp.DecodeInto(scratch, cr.sample[i].Meta)
	}), "ns")
	var buf []byte
	set("timestamp.encode_ns", perCall(len(vecs), func(i int) { buf = timestamp.EncodeTo(buf[:0], vecs[i]) }), "ns")
	local := make([]timestamp.Vec, g.NumReplicas())
	for i := range local {
		local[i] = space.Zero(sharegraph.ReplicaID(i))
	}
	set("timestamp.merge_ns", perCall(len(vecs), func(i int) {
		env := &cr.sample[i]
		space.MergeInPlace(env.To, local[env.To], env.From, vecs[i])
	}), "ns")
	deliverable := 0
	set("timestamp.deliverable_ns", perCall(len(vecs), func(i int) {
		env := &cr.sample[i]
		if space.Deliverable(env.To, local[env.To], env.From, vecs[i]) {
			deliverable++
		}
	}), "ns")
	set("timestamp.bytes_per_entry", float64(metaBytes)/float64(max(1, metaEntries)), "B")

	// transport: the scheduler pool at the replay's in-flight depth, and
	// the byte pool every sink copies metadata through.
	var pool transport.Pool
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < inflightDepth && len(cr.sample) > 0; i++ {
		pool.Add(cr.sample[i%len(cr.sample)])
	}
	poolNs := perCall(len(cr.sample), func(i int) {
		pool.Add(cr.sample[i])
		pool.Take(rng.Intn(pool.Len()))
	})
	set("transport.pool_add_take_ns", poolNs, "ns")
	var bytePool transport.BytePool
	set("transport.bytepool_get_put_ns", perCall(len(cr.sample), func(i int) {
		bytePool.Put(bytePool.Copy(cr.sample[i].Meta))
	}), "ns")

	// sim: what the deterministic runner adds around the protocol and the
	// pool, and what the oracle adds on the identical schedule.
	runSim := func(proto core.Protocol, skipAudit bool) (float64, int, error) {
		t := time.Now()
		r, err := sim.Run(sim.Config{Graph: g, Protocol: proto, Script: script, Sched: transport.NewRandom(1), SkipAudit: skipAudit})
		if err != nil {
			return 0, 0, err
		}
		if !r.Ok() {
			return 0, 0, fmt.Errorf("sim replay: %s", r.Summary())
		}
		return float64(time.Since(t).Nanoseconds()), r.MessagesSent, nil
	}
	unaudited, _, err := runSim(p, true)
	if err != nil {
		return nil, err
	}
	audited, _, err := runSim(p, false)
	if err != nil {
		return nil, err
	}
	set("causality.share", 1-unaudited/audited, "ratio")
	tp := &timedProtocol{Protocol: p}
	wall, simMsgs, err := runSim(tp, true)
	if err != nil {
		return nil, err
	}
	set("sim.run_self_ns_per_op", (wall-float64(tp.spent.Nanoseconds())-poolNs*float64(simMsgs))/float64(n), "ns")

	// runtime: one engine hop with a deliver that does nothing.
	eng := rt.New(g.NumReplicas(), rt.Options{Workers: cfg.workers, Seed: 1}, func(core.Envelope) {})
	t = time.Now()
	for i := 0; i < n; i++ {
		eng.Send(core.Envelope{To: sharegraph.ReplicaID(i % g.NumReplicas())})
	}
	eng.Quiesce()
	set("runtime.hop_ns", float64(time.Since(t).Nanoseconds())/float64(n), "ns")
	eng.Close()

	// wire: the codec on the replay's envelopes, and Transport.Send into
	// a listener that discards.
	frames := make([][]byte, len(cr.sample))
	frameBytes := 0
	for i, env := range cr.sample {
		frames[i] = wire.AppendUpdate(nil, env)
		frameBytes += len(frames[i])
	}
	set("wire.encode_ns", perCall(len(cr.sample), func(i int) { buf = wire.AppendUpdate(buf[:0], cr.sample[i]) }), "ns")
	set("wire.frame_bytes", float64(frameBytes)/float64(max(1, len(frames))), "B")
	var decodeErr error
	set("wire.decode_ns", perCall(len(frames), func(i int) {
		_, payload, err := wire.DecodeBody(frames[i][4:]) // past the u32 length prefix
		if err == nil {
			_, err = wire.DecodeUpdate(payload, nil)
		}
		if err != nil {
			decodeErr = err
		}
	}), "ns")
	if decodeErr != nil {
		return nil, fmt.Errorf("wire replay: %w", decodeErr)
	}
	ln, err := discardListener()
	if err != nil {
		return nil, err
	}
	var framePool transport.BytePool
	wt := wire.NewTransport(0, []string{"127.0.0.1:1", ln.Addr().String()}, &framePool, wire.TransportOptions{})
	t = time.Now()
	for i := 0; i < n && len(cr.sample) > 0; i++ {
		wt.Send(1, wire.AppendUpdate(framePool.Get(), cr.sample[i%len(cr.sample)]))
	}
	wt.Flush()
	set("wire.send_ns", float64(time.Since(t).Nanoseconds())/float64(n), "ns")
	sendDropped := wt.Dropped()
	wt.Close()
	ln.Close()

	// What the drivers saw: spans, gauges and the armed obs snapshot.
	timed, spans, armed := res.passes("timed"), res.passes("spans"), res.passes("armed")
	rate := func(ps []passRecord) float64 {
		return median(column(ps, func(p *passRecord) float64 { return p.OpsPerS }))
	}
	share := func(ps []passRecord) float64 {
		if base := rate(timed); base > 0 && len(ps) > 0 {
			return 1 - rate(ps)/base
		}
		return 0
	}
	set("trace.overhead_share", share(spans), "ratio")
	set("obs.armed_overhead_share", share(armed), "ratio")
	var delivered, stalls, rechecks, queuePeak int64
	for _, rec := range armed {
		for _, r := range rec.snap.Replicas {
			delivered += r.Delivered
			stalls += r.Stalls
			rechecks += r.Rechecks
			queuePeak = max(queuePeak, r.InboxPeak)
		}
		for _, q := range rec.snap.Queues {
			queuePeak = max(queuePeak, q.Peak)
		}
	}
	set("obs.stalls_per_kmsg", 1000*float64(stalls)/float64(max(1, delivered)), "1/kmsg")
	set("obs.rechecks_per_kmsg", 1000*float64(rechecks)/float64(max(1, delivered)), "1/kmsg")
	set("runtime.queue_peak", float64(queuePeak), "count")

	spanMean := func(name string) float64 { return mean(tr.durations(name)) }
	runtimeIs := func(layer string) bool { return w.layer == layer && w.batch == nil }
	pick := func(layer string, v float64) float64 {
		if runtimeIs(layer) {
			return v
		}
		return 0
	}
	set("sim.cluster_write_ns", pick("sim", spanMean("sim.write")), "ns")
	set("sim.cluster_sync_ms", pick("sim", spanMean("sim.sync")/1e6), "ms")
	set("shard.write_ns", pick("shard", spanMean("shard.write")), "ns")
	set("shard.sync_ms", pick("shard", spanMean("shard.sync")/1e6), "ms")
	var batches, envelopes, updates, totalOps int64
	for _, rec := range timed {
		batches += rec.snap.Batches
		envelopes += rec.snap.Envelopes
		updates += rec.snap.Updates
		totalOps += rec.Ops
	}
	set("shard.env_per_batch", pick("shard", float64(envelopes)/float64(max(1, batches))), "ratio")
	set("shard.batches_per_kop", pick("shard", 1000*float64(batches)/float64(max(1, totalOps))), "1/kop")
	set("wire.client_write_ns", pick("wire", spanMean("wire.write")), "ns")
	set("wire.quiesce_ms", pick("wire", spanMean("wire.sync")/1e6), "ms")
	set("wire.status_rtt_us", pick("wire", spanMean("wire.status")/1e3), "us")
	var queuedOut, goroutines int
	var dropped int64
	for _, rec := range res.Passes {
		queuedOut = max(queuedOut, rec.queuedOut)
		goroutines = max(goroutines, rec.goroutines)
		dropped += rec.dropped
	}
	set("wire.queued_out_peak", float64(queuedOut), "count")
	set("wire.dropped", float64(dropped+int64(sendDropped)), "count")
	csWrites, csReads := tr.durations("clientserver.write"), tr.durations("clientserver.read")
	set("clientserver.write_us_p50", quantile(csWrites, 0.5)/1e3, "us")
	set("clientserver.read_us_p50", quantile(csReads, 0.5)/1e3, "us")
	set("clientserver.read_us_p99", quantile(csReads, 0.99)/1e3, "us")
	set("clientserver.updates_per_write", pick("clientserver", float64(updates)/float64(max(1, totalOps/2))), "ratio")
	set("clientserver.slowdown_ratio", pick("clientserver", median(column(timed, func(p *passRecord) float64 {
		if p.QuarterS[3] == 0 {
			return 0
		}
		return p.QuarterS[0] / p.QuarterS[3] // equal op counts, so a ratio of times is a ratio of rates
	}))), "ratio")

	// The paced phase's own validity and tail, which no bound is put on.
	pc := res.pacedColumn
	set("probe.visible_p75_us", quantile(pc(func(p *pacedRecord) float64 { return p.VisibleP75Us }), undisturbed), "us")
	set("probe.visible_p95_us", median(pc(func(p *pacedRecord) float64 { return p.VisibleP95Us })), "us")
	set("probe.visible_p99_us", median(pc(func(p *pacedRecord) float64 { return p.VisibleP99Us })), "us")
	set("probe.visible_max_us", quantile(pc(func(p *pacedRecord) float64 { return p.VisibleMaxUs }), 1), "us")
	set("probe.timeouts", sum(pc(func(p *pacedRecord) float64 { return float64(p.Timeouts) })), "count")
	set("gen.late_p99_us", median(pc(func(p *pacedRecord) float64 { return p.LateP99Us })), "us")
	set("gen.achieved_rate_share", quantile(pc(func(p *pacedRecord) float64 { return p.AchievedShare }), 0), "ratio")

	// The process as a whole, over the plain timed passes.
	var cpu float64
	var mallocs uint64
	for _, rec := range timed {
		cpu += rec.CPUS
		mallocs += rec.Mallocs
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set("proc.cpu_us_per_op", 1e6*cpu/float64(max(1, totalOps)), "us")
	set("proc.allocs_per_op", float64(mallocs)/float64(max(1, totalOps)), "1/op")
	set("proc.gc_cpu_share", ms.GCCPUFraction, "ratio")
	_, peakRSS := rusage()
	set("proc.peak_rss_mb", peakRSS, "MiB")
	set("proc.goroutines_peak", float64(goroutines), "count")
	set("proc.machine_speed", res.MachineSpeed, "1/us")
	return out, nil
}
