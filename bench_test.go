package prcc

// Root benchmark harness. cmd/prcc-bench prints and asserts the paper's
// claims as one table (TestClaims); the E-rows kept here time the two
// analyses no benchmark/ layer row measures — the Section 4 lower bound
// (E8 trees, E9 cycles) and Section 5 compression (E11). The other
// benchmarks time the runtimes end to end; custom metrics attach the
// quantities the paper reasons about to the timing output.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/optimize"
	"repro/internal/shard"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// BenchmarkE8LowerBoundTree regenerates the tree closed-form check:
// conflict-clique construction + pairwise Definition 13 verification.
func BenchmarkE8LowerBoundTree(b *testing.B) {
	g := sharegraph.Line(5)
	b.ReportAllocs()
	tight := true
	for n := 0; n < b.N; n++ {
		bound := lowerbound.ComputeBound(g, 1, 2)
		tight = tight && bound.Tight()
	}
	if !tight {
		b.Fatal("tree bound not tight")
	}
}

// BenchmarkE9LowerBoundCycle regenerates the cycle closed-form check.
func BenchmarkE9LowerBoundCycle(b *testing.B) {
	g := sharegraph.Ring(4)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if bound := lowerbound.ComputeBound(g, 0, 2); !bound.Tight() {
			b.Fatal("cycle bound not tight")
		}
	}
}

// BenchmarkE11Compression measures Section 5 compression analysis and
// reports the achieved ratio on random k-replication.
func BenchmarkE11Compression(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		g := sharegraph.RandomK(8, 24, k, 5)
		graphs := sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{})
		b.Run(map[int]string{2: "k2", 3: "k3", 4: "k4"}[k], func(b *testing.B) {
			b.ReportAllocs()
			var ratio float64
			for n := 0; n < b.N; n++ {
				reports := optimize.AnalyzeAll(g, graphs)
				ratio = float64(optimize.TotalCompressed(reports)) / float64(optimize.TotalEntries(reports))
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkScaleDelivery measures the indexed delivery engine at scale:
// full oracle-audited runs on 32- and 64-replica topologies at 5k–100k
// operations, under the seeded-random and adversarial LIFO schedules.
// These sizes were unreachable before the engine rework (the seed capped
// out at rings of 8 and 300 ops), and the 100k case only became
// affordable once the oracle stopped cloning a flat causal past per
// issue — that pays O(ops²/8) bytes, over a gigabyte at that size. The
// dense RandomK topology runs twice: once under the Appendix D
// loop-length truncation (MaxLen 5, the sacrificed-causality variant) and
// once untruncated (randomk32_5k_exact) — the exact Definition 5 protocol,
// reachable since the dominance-pruned loop engine replaced the
// enumerating DFS for timestamp-graph construction. The oracle still
// audits every benchmarked schedule clean.
func BenchmarkScaleDelivery(b *testing.B) {
	type scaleCase struct {
		name  string
		build func() *sharegraph.Graph
		opts  sharegraph.LoopOptions
		ops   int
	}
	cases := []scaleCase{
		{"ring32_5k", func() *sharegraph.Graph { return sharegraph.Ring(32) }, sharegraph.LoopOptions{}, 5000},
		{"ring32_50k", func() *sharegraph.Graph { return sharegraph.Ring(32) }, sharegraph.LoopOptions{}, 50000},
		{"ring64_50k", func() *sharegraph.Graph { return sharegraph.Ring(64) }, sharegraph.LoopOptions{}, 50000},
		{"ring64_100k", func() *sharegraph.Graph { return sharegraph.Ring(64) }, sharegraph.LoopOptions{}, 100000},
		{"randomk32_5k", func() *sharegraph.Graph { return sharegraph.RandomK(32, 96, 3, 7) }, sharegraph.LoopOptions{MaxLen: 5}, 5000},
		{"randomk32_5k_exact", func() *sharegraph.Graph { return sharegraph.RandomK(32, 96, 3, 7) }, sharegraph.LoopOptions{}, 5000},
	}
	type schedCase struct {
		name string
		make func() transport.Scheduler
	}
	scheds := []schedCase{
		{"random", func() transport.Scheduler { return transport.NewRandom(11) }},
		{"lifo", func() transport.Scheduler { return transport.LIFOScheduler{} }},
	}
	for _, tc := range cases {
		g := tc.build()
		p, err := core.NewEdgeIndexedWithGraphs(g, sharegraph.BuildAllTSGraphs(g, tc.opts), "edge-indexed")
		if err != nil {
			b.Fatal(err)
		}
		script := workload.SharedOnly(g, tc.ops, 1)
		for _, sc := range scheds {
			b.Run(tc.name+"/"+sc.name, func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					res, err := sim.Run(sim.Config{Graph: g, Protocol: p, Script: script, Sched: sc.make()})
					if err != nil || !res.Ok() {
						b.Fatalf("run failed: %v %+v", err, res)
					}
				}
				b.ReportMetric(float64(tc.ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			})
		}
	}
}

// BenchmarkDrainOutOfOrder isolates the delivery engine's core win: one
// sender's updates arriving fully reversed, so every update buffers until
// the first-sent arrives and then the whole buffer cascades. The
// reference engine rescans the buffer on every arrival — O(P²)
// deliverability checks per window — while the indexed engine files each
// arrival in O(1) and walks the sender chain once, so its ns/msg and
// allocs/msg stay flat as the pending window grows.
func BenchmarkDrainOutOfOrder(b *testing.B) {
	g := sharegraph.Line(2)
	for _, engine := range []struct {
		name  string
		build func(*sharegraph.Graph) (*core.EdgeIndexed, error)
	}{
		{"indexed", core.NewEdgeIndexed},
		{"naive", core.NewEdgeIndexedNaive},
	} {
		p, err := engine.build(g)
		if err != nil {
			b.Fatal(err)
		}
		for _, window := range []int{64, 256, 1024} {
			// Pre-generate the reversed message sequence once.
			nodes, err := p.NewNodes()
			if err != nil {
				b.Fatal(err)
			}
			envs := make([]core.Envelope, window)
			for i := 0; i < window; i++ {
				out, err := core.CollectWrite(nodes[0], "seg0", core.Value(i), causality.UpdateID(i))
				if err != nil || len(out) != 1 {
					b.Fatalf("write %d: %v %v", i, err, out)
				}
				envs[window-1-i] = out[0]
			}
			b.Run(fmt.Sprintf("%s/window%d", engine.name, window), func(b *testing.B) {
				b.ReportAllocs()
				applies := 0
				for n := 0; n < b.N; n++ {
					recv, err := p.NewNodes()
					if err != nil {
						b.Fatal(err)
					}
					// The edge-indexed protocol never forwards; a discard
					// sink keeps the measurement free of collection cost.
					for _, e := range envs {
						applies += len(recv[1].HandleMessage(e, core.DiscardSink{}))
					}
					if recv[1].PendingCount() != 0 {
						b.Fatal("window did not drain")
					}
				}
				if applies != b.N*window {
					b.Fatalf("applied %d of %d", applies, b.N*window)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*window), "ns/msg")
			})
		}
	}
}

// BenchmarkClusterThroughput measures the live worker-pool runtime at
// scale: Ring(32) at 10k concurrent client ops end to end — oracle audit,
// inbox backpressure and quiesce included. A sampler asserts the runtime
// property that makes this size reachable at all: the goroutine count
// stays at workers + drivers + constant overhead, never O(messages) as
// under the old goroutine-per-message dispatch.
//
// The /base row runs with the fault layer disarmed and is the gated
// number: fault hooks must reduce to one nil check on the delivery
// path, so /base regressing against a pre-chaos baseline means the
// hooks leak cost into the common case. The /chaos row runs the same
// workload under an ambient loss/duplication lottery and measures what
// injected faults cost (retransmit pump, duplicate deliveries, dup
// hardening in the ingest queues).
func BenchmarkClusterThroughput(b *testing.B) {
	g := sharegraph.Ring(32)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		b.Fatal(err)
	}
	const ops = 10000
	const workers = 8
	script := workload.Uniform(g, ops, 7)

	run := func(b *testing.B, chaos bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			base := runtime.NumGoroutine()
			opts := []sim.ClusterOption{sim.WithWorkers(workers), sim.WithSeed(int64(n + 1))}
			if chaos {
				opts = append(opts, sim.WithChaos(FaultPlan{
					Seed:    int64(n + 1),
					Default: EdgeFault{Drop: 0.005, Dup: 0.005},
				}))
			}
			c, err := sim.NewCluster(g, p, opts...)
			if err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var peak atomic.Int64
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
						if g := int64(runtime.NumGoroutine()); g > peak.Load() {
							peak.Store(g)
						}
						time.Sleep(200 * time.Microsecond)
					}
				}
			}()
			violations := c.RunScript(script)
			close(stop)
			if len(violations) != 0 {
				b.Fatalf("live run not clean: %d violations", len(violations))
			}
			// Injected duplicates park dead in the ingest queues and stay
			// counted as pending; the liveness audit above already proved
			// every genuine update applied, so only the base row may
			// demand an empty buffer.
			if !chaos && c.PendingTotal() != 0 {
				b.Fatalf("live run not clean: %d stuck", c.PendingTotal())
			}
			c.Close()
			// The chaos engine adds exactly one goroutine: the retransmit
			// pump.
			bound := int64(base + workers + g.NumReplicas() + 8)
			if chaos {
				bound++
			}
			if peak.Load() > bound {
				b.Fatalf("goroutine count %d exceeds worker-pool bound %d", peak.Load(), bound)
			}
		}
		b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	}

	b.Run("base", func(b *testing.B) { run(b, false) })
	b.Run("chaos", func(b *testing.B) { run(b, true) })
}

// BenchmarkMetricsOverhead measures what the observability registry
// costs, mirroring BenchmarkClusterThroughput's base/chaos split: the
// /disarmed row is the gated number — without ClusterOptions.Metrics
// every instrumentation site must reduce to one nil check, so this row
// regressing means the hooks leak cost into the common case. The
// /armed row runs the identical workload with the registry collecting
// per-replica, per-edge and queue-depth counters and measures the
// documented price of turning it on.
func BenchmarkMetricsOverhead(b *testing.B) {
	g := sharegraph.Ring(32)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		b.Fatal(err)
	}
	const ops = 10000
	const workers = 8
	script := workload.Uniform(g, ops, 7)

	run := func(b *testing.B, armed bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			opts := []sim.ClusterOption{sim.WithWorkers(workers), sim.WithSeed(int64(n + 1))}
			if armed {
				opts = append(opts, sim.WithMetrics())
			}
			c, err := sim.NewCluster(g, p, opts...)
			if err != nil {
				b.Fatal(err)
			}
			violations := c.RunScript(script)
			if len(violations) != 0 {
				b.Fatalf("live run not clean: %d violations", len(violations))
			}
			if armed {
				// The registry must agree with the authoritative transport
				// counter — per-edge attribution sums to the total.
				m := c.Metrics()
				var sent int64
				for _, e := range m.Edges {
					sent += e.Sent
				}
				if sent != c.MessagesSent() {
					b.Fatalf("edge sent sum %d != messages sent %d", sent, c.MessagesSent())
				}
			}
			c.Close()
		}
		b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	}

	b.Run("disarmed", func(b *testing.B) { run(b, false) })
	b.Run("armed", func(b *testing.B) { run(b, true) })
}

// BenchmarkClientServerLive measures the Appendix E architecture on the
// shared worker-pool engine at Ring(32) scale: 32 concurrent clients
// (one per adjacent replica pair) issuing synchronous writes and
// J1-blocking reads, oracle audit and quiesce included. A sampler
// asserts the property the engine port buys: goroutine count stays at
// workers + clients + constant overhead, never O(updates) as under the
// old per-update goroutine dispatch.
func BenchmarkClientServerLive(b *testing.B) {
	const n = 32
	const opsPerClient = 100
	const workers = 8
	stores := make([][]Register, n)
	clients := make([][]ReplicaID, n)
	reg := func(i int) Register { return Register(fmt.Sprintf("ring%d", i)) }
	for i := 0; i < n; i++ {
		stores[i] = []Register{reg((i + n - 1) % n), reg(i)}
		clients[i] = []ReplicaID{ReplicaID(i), ReplicaID((i + 1) % n)}
	}
	cs, err := NewClientServer(stores, clients)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		base := runtime.NumGoroutine()
		live := cs.LiveWith(ClusterOptions{Workers: workers, Seed: int64(iter + 1)})
		stop := make(chan struct{})
		var peak atomic.Int64
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					if g := int64(runtime.NumGoroutine()); g > peak.Load() {
						peak.Store(g)
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lc := live.Client(ClientID(c))
				for k := 1; k <= opsPerClient; k++ {
					if k%5 == 0 {
						if _, err := lc.Read(reg(c)); err != nil {
							b.Error(err)
							return
						}
						continue
					}
					if err := lc.Write(reg(c), Value(c*1000+k)); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		live.Sync()
		close(stop)
		if err := live.Check(); err != nil {
			b.Fatal(err)
		}
		if m := live.Metrics(); m.Updates == 0 || m.MetaBytes == 0 {
			b.Fatalf("empty transport stats (%d updates, %d bytes)", m.Updates, m.MetaBytes)
		}
		live.Close()
		if bound := int64(base + workers + n + 8); peak.Load() > bound {
			b.Fatalf("goroutine count %d exceeds worker-pool bound %d", peak.Load(), bound)
		}
	}
	b.ReportMetric(float64(n*opsPerClient)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkShardedThroughput measures the sharded multi-space runtime:
// thousands of independent Ring(8) spaces multiplexed over one shared
// worker pool, driven by a zipf-skewed multi-tenant workload with
// per-shard envelope batching. The /seq1k row is the architectural
// baseline the shard layer is gated against: the same 1k per-space
// scripts run on 1k sequentially created single-space clusters (the
// repo's pre-shard way to host a space, oracle included) with the same
// worker budget — paying per-space pool spin-up/teardown and unbatched
// delivery, exactly the costs sharding amortizes. The shard package's
// TestShardedBeatsSequentialClusters pins the ratio at ≥5×.
func BenchmarkShardedThroughput(b *testing.B) {
	g := sharegraph.Ring(8)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		b.Fatal(err)
	}
	const workers = 8
	const opsPerSpace = 16
	shardedRow := func(spaces int) func(b *testing.B) {
		ops := spaces * opsPerSpace
		ms, err := workload.GenerateMulti(g, workload.MultiOptions{Spaces: spaces, Ops: ops, Zipf: 1.2, Seed: 5})
		return func(b *testing.B) {
			if err != nil {
				b.Fatal(err)
			}
			// The runtime is the long-lived multi-tenant service under
			// measurement: its spaces stay resident across workload waves,
			// which is exactly what the sequential baseline cannot do on
			// the same worker budget.
			r, err := shard.New(g, p, shard.Options{Spaces: spaces, Workers: workers, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				r.RunMulti(ms, 0)
			}
			b.StopTimer()
			m := r.Metrics()
			if m.Envelopes == 0 {
				b.Fatal("no envelopes delivered")
			}
			b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(m.Envelopes)/float64(m.Batches), "env/batch")
		}
	}
	b.Run("spaces1k", shardedRow(1000))
	b.Run("spaces8k", shardedRow(8000))
	b.Run("seq1k", func(b *testing.B) {
		const spaces = 1000
		ms, err := workload.GenerateMulti(g, workload.MultiOptions{Spaces: spaces, Ops: spaces * opsPerSpace, Zipf: 1.2, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		scripts := make([]workload.Script, spaces)
		for s := range scripts {
			scripts[s] = ms.PerSpace(s)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for s := 0; s < spaces; s++ {
				if len(scripts[s]) == 0 {
					continue
				}
				c, err := sim.NewCluster(g, p,
					sim.WithWorkers(workers),
					sim.WithSeed(workload.SpaceSeed(int64(n+1), s)))
				if err != nil {
					b.Fatal(err)
				}
				if v := c.RunScript(scripts[s]); len(v) != 0 {
					b.Fatalf("space %d: %d oracle violations", s, len(v))
				}
				c.Close()
			}
		}
		b.ReportMetric(float64(spaces*opsPerSpace)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	})
}

// BenchmarkLiveCluster measures the worker-pool runtime end to end on the
// quickstart system (small topology, per-write cost dominated).
func BenchmarkLiveCluster(b *testing.B) {
	sys, err := New([][]Register{{"x"}, {"x", "y"}, {"y", "z"}, {"z"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c, err := sys.Cluster()
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 20; k++ {
			if err := c.Write(1, "y", Value(k)); err != nil {
				b.Fatal(err)
			}
		}
		c.Sync()
		if err := c.Check(); err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

// BenchmarkPlacementSearch measures the seeded placement search end to
// end. Every candidate evaluation rebuilds the effective graph's
// timestamp graphs — the search's dominant cost — so with a fixed
// deterministic budget (same seed, same moves, same evaluation count)
// ns/op growth here means candidate evaluation itself got slower. The
// entries_saved metric pins the search's result quality alongside its
// cost: ring cases must rediscover the line (2n² → 4n−4).
func BenchmarkPlacementSearch(b *testing.B) {
	cases := []struct {
		name string
		g    *sharegraph.Graph
		opts optimize.SearchOptions
	}{
		{"ring8", sharegraph.Ring(8), optimize.SearchOptions{Seed: 1}},
		{"ring16", sharegraph.Ring(16), optimize.SearchOptions{Seed: 1}},
		{"randomk16", sharegraph.RandomK(16, 40, 3, 7), optimize.SearchOptions{Seed: 1, Restarts: 1, MaxEvals: 12}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *optimize.SearchResult
			for n := 0; n < b.N; n++ {
				var err error
				res, err = optimize.Search(tc.g, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.BaseEntries-res.Entries), "entries_saved")
		})
	}
}
