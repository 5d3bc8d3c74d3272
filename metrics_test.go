package prcc

import "testing"

// TestUnifiedMetricsSchema pins the API-redesign acceptance criterion at
// the public surface: every in-process runtime returns the same Metrics
// snapshot type, tagged with its runtime name, with legacy totals always
// present and per-replica/per-edge breakdowns present when armed. (The
// fourth runtime, wire.Node/wire.Client, is pinned to the same schema in
// internal/wire's status tests over real TCP and HTTP.)
func TestUnifiedMetricsSchema(t *testing.T) {
	sys := fig3System(t)

	// Cluster, armed.
	cluster, err := sys.ClusterWith(ClusterOptions{Metrics: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cluster.Write(1, "y", Value(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	cluster.Sync()
	cm := cluster.Metrics()
	cluster.Close()
	if cm.Runtime != "cluster" {
		t.Errorf("cluster runtime tag = %q", cm.Runtime)
	}
	if cm.Messages == 0 || cm.MetaBytes == 0 {
		t.Errorf("cluster legacy totals empty: %+v", cm)
	}
	if len(cm.Replicas) != sys.NumReplicas() || len(cm.Edges) == 0 {
		t.Errorf("armed cluster lacks breakdowns: replicas=%d edges=%d", len(cm.Replicas), len(cm.Edges))
	}

	// Client-server live deployment, armed.
	cs, err := NewClientServer(
		[][]Register{{"a", "c"}, {"a"}, {"b"}, {"b", "c"}},
		[][]ReplicaID{{1, 2}, {3, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	live := cs.LiveWith(ClusterOptions{Metrics: true, Seed: 4})
	alice := live.Client(0)
	for i := 0; i < 10; i++ {
		if err := alice.Write("a", Value(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	live.Sync()
	lm := live.Metrics()
	live.Close()
	if lm.Runtime != "clientserver" {
		t.Errorf("clientserver runtime tag = %q", lm.Runtime)
	}
	if lm.Updates == 0 || lm.MetaBytes == 0 {
		t.Errorf("clientserver legacy totals empty: %+v", lm)
	}
	if len(lm.Replicas) == 0 || len(lm.Edges) == 0 {
		t.Errorf("armed clientserver lacks breakdowns: replicas=%d edges=%d", len(lm.Replicas), len(lm.Edges))
	}

	// Sharded multi-space runtime, armed. Replica counters aggregate
	// across spaces; queue gauges stay per shard (a distinct index space).
	sh, err := sys.ShardedWith(ShardOptions{Spaces: 4, Shards: 2, Metrics: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		for i := 0; i < 5; i++ {
			if err := sh.Write(s, 1, "y", Value(i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sh.Sync()
	sm := sh.Metrics()
	sh.Close()
	if sm.Runtime != "sharded" {
		t.Errorf("sharded runtime tag = %q", sm.Runtime)
	}
	if sm.Batches == 0 || sm.Envelopes == 0 || sm.MetaBytes == 0 {
		t.Errorf("sharded legacy totals empty: %+v", sm)
	}
	if len(sm.Replicas) != sys.NumReplicas() || len(sm.Edges) == 0 {
		t.Errorf("armed sharded lacks breakdowns: replicas=%d edges=%d", len(sm.Replicas), len(sm.Edges))
	}
	if len(sm.Queues) != 2 {
		t.Errorf("sharded queue gauges = %d rows, want one per shard (2)", len(sm.Queues))
	}
}
