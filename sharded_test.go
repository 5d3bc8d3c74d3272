package prcc

import (
	"testing"
)

// TestShardedFacade drives the sharded multi-space runtime through the
// public surface: isolated per-space writes over a shared worker pool,
// audit, routing keys, snapshots matching an independent single-space
// cluster, and batching stats.
func TestShardedFacade(t *testing.T) {
	sys := fig3System(t)
	const spaces = 6
	sh, err := sys.ShardedWith(ShardOptions{Spaces: spaces, Shards: 2, Audit: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if sh.Spaces() != spaces || sh.Shards() != 2 || sh.Workers() < 2 {
		t.Fatalf("geometry: spaces=%d shards=%d workers=%d", sh.Spaces(), sh.Shards(), sh.Workers())
	}

	// Distinct values per space: isolation means no bleed-through.
	for s := 0; s < spaces; s++ {
		for i := 0; i < 20; i++ {
			if err := sh.Write(s, 1, "y", Value(100*s+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sh.Sync()
	for s := 0; s < spaces; s++ {
		want := Value(100*s + 19)
		if v, ok := sh.Read(2, 0, "x"); s == 2 && ok && v != 0 {
			t.Errorf("unwritten register x reads %d", v)
		}
		for _, r := range []ReplicaID{1, 2} {
			if v, ok := sh.Read(s, r, "y"); !ok || v != want {
				t.Errorf("space %d replica %d: y = (%d,%v), want (%d,true)", s, r, v, ok, want)
			}
		}
	}
	if err := sh.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}

	// Snapshot of one space has the cluster shape: one map per replica.
	snap := sh.Snapshot(3)
	if len(snap) != sys.NumReplicas() {
		t.Fatalf("Snapshot has %d replicas, want %d", len(snap), sys.NumReplicas())
	}
	if snap[1]["y"] != 319 || snap[2]["y"] != 319 {
		t.Errorf("snapshot of space 3: %v", snap)
	}

	// Routing keys round-trip and agree with the shard mapping.
	key := sh.Key(5, "y")
	if key != "s5/y" {
		t.Errorf("Key = %q", key)
	}
	space, shardID, reg, err := sh.Resolve(key)
	if err != nil || space != 5 || shardID != 5%2 || reg != "y" {
		t.Errorf("Resolve(%q) = (%d,%d,%q,%v)", key, space, shardID, reg, err)
	}
	if _, _, _, err := sh.Resolve("nonsense"); err == nil {
		t.Error("Resolve accepted garbage")
	}

	if m := sh.Metrics(); m.Batches <= 0 || m.Envelopes < m.Batches || m.MetaBytes <= 0 {
		t.Errorf("Metrics = (%d,%d,%d)", m.Batches, m.Envelopes, m.MetaBytes)
	}

	// Validation surface.
	if err := sh.Write(spaces, 1, "y", 1); err == nil {
		t.Error("out-of-range space accepted")
	}
	if err := sh.Write(0, 0, "y", 1); err == nil {
		t.Error("write at non-holder accepted")
	}
	if _, err := sys.ShardedWith(ShardOptions{}); err == nil {
		t.Error("zero spaces accepted")
	}
}

// TestShardedMatchesCluster pins one sharded space against an
// independent Cluster run of the same operations through the facade.
func TestShardedMatchesCluster(t *testing.T) {
	sys := fig3System(t)
	sh, err := sys.ShardedWith(ShardOptions{Spaces: 3, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	cl, err := sys.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	type op struct {
		r ReplicaID
		x Register
		v Value
	}
	// Each register gets two writers. Causal consistency leaves the final
	// value of concurrent writes to one register open, so both runtimes
	// sync between the rounds: every second-round write then causally
	// follows the first-round write to its register, and the final state
	// is determined.
	rounds := [][]op{
		{{0, "x", 1}, {1, "y", 2}, {2, "z", 3}},
		{{1, "x", 4}, {2, "y", 5}, {3, "z", 6}},
	}
	for _, ops := range rounds {
		for _, o := range ops {
			if err := sh.Write(1, o.r, o.x, o.v); err != nil {
				t.Fatal(err)
			}
			if err := cl.Write(o.r, o.x, o.v); err != nil {
				t.Fatal(err)
			}
		}
		sh.Sync()
		cl.Sync()
	}
	if err := sh.Check(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Check(); err != nil {
		t.Fatal(err)
	}
	snap := sh.Snapshot(1)
	for r := 0; r < sys.NumReplicas(); r++ {
		for _, x := range sys.Registers() {
			cv, cok := cl.Read(ReplicaID(r), x)
			sv, sok := snap[r][x]
			if cok != sok || (cok && cv != sv) {
				t.Errorf("replica %d %s: sharded (%d,%v) vs cluster (%d,%v)", r, x, sv, sok, cv, cok)
			}
		}
	}
	// The other spaces saw none of it.
	for _, s := range []int{0, 2} {
		if v, ok := sh.Read(s, 1, "y"); ok && v != 0 {
			t.Errorf("space %d leaked y=%d", s, v)
		}
	}
}
