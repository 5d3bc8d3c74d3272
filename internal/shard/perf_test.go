package shard

import (
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestShardedBeatsSequentialClusters gates the sharding tentpole's
// headline claim: a long-lived sharded runtime hosting 1k Ring(8)
// spaces on a fixed worker pool must push ≥5× the aggregate ops/s of
// running the same 1k per-space scripts through 1k sequentially
// created single-space clusters on the same worker budget.
//
// Each side runs in its default configuration — the system a caller
// actually gets. The sequential side is the repo's pre-shard way to
// host a space: a sim.Cluster with its causality oracle, paying pool
// spin-up/teardown per space per wave (holding 1k live clusters
// instead would need 1000× the worker budget, the resource wall the
// shard layer exists to avoid). The sharded side runs audit-off, its
// documented default: per-space oracles dominate memory at thousands
// of spaces, and TestShardedMatchesIndependentClusters transfers the
// correctness evidence from audited single-space runs instead.
//
// Timing is the median of three waves after two warmups (pool and
// lazily-built state fill over the first waves) to shed scheduler
// noise.
func TestShardedBeatsSequentialClusters(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput-ratio gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing ratios are meaningless under the race detector")
	}
	const (
		spaces      = 1000
		opsPerSpace = 16
		workers     = 8
		seed        = 5
	)
	g := sharegraph.Ring(8)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := workload.GenerateMulti(g, workload.MultiOptions{
		Spaces: spaces, Ops: spaces * opsPerSpace, Zipf: 1.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	median := func(warmups, rounds int, wave func()) time.Duration {
		for i := 0; i < warmups; i++ {
			wave()
		}
		times := make([]time.Duration, rounds)
		for i := range times {
			start := time.Now()
			wave()
			times[i] = time.Since(start)
		}
		sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
		return times[rounds/2]
	}

	r, err := New(g, p, Options{Spaces: spaces, Workers: workers, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded := median(2, 3, func() { r.RunMulti(ms, 0) })
	if m := r.Metrics(); m.Envelopes == 0 {
		t.Fatal("sharded run delivered no envelopes")
	}
	r.Close()

	scripts := make([]workload.Script, spaces)
	for s := range scripts {
		scripts[s] = ms.PerSpace(s)
	}
	sequential := median(1, 3, func() {
		for s := 0; s < spaces; s++ {
			if len(scripts[s]) == 0 {
				continue
			}
			c, err := sim.NewCluster(g, p,
				sim.WithWorkers(workers),
				sim.WithSeed(workload.SpaceSeed(seed, s)))
			if err != nil {
				t.Fatal(err)
			}
			if v := c.RunScript(scripts[s]); len(v) != 0 {
				t.Fatalf("space %d: %d oracle violations", s, len(v))
			}
			c.Close()
		}
	})

	ratio := float64(sequential) / float64(sharded)
	t.Logf("sharded=%v sequential=%v ratio=%.2f×", sharded, sequential, ratio)
	if ratio < 5 {
		t.Errorf("sharded runtime only %.2f× the sequential-cluster aggregate, want ≥5× (sharded=%v sequential=%v)",
			ratio, sharded, sequential)
	}
}
