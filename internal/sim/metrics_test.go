package sim

import (
	"testing"

	"repro/internal/obs"
	rt "repro/internal/runtime"
	"repro/internal/sharegraph"
	"repro/internal/workload"
)

// TestClusterMetricsArmed checks the armed registry against the
// cluster's own ground truth after a quiesced workload: every message
// sent was delivered somewhere, edge attribution sums to the totals, and
// the meta-byte accounting matches the legacy counter.
func TestClusterMetricsArmed(t *testing.T) {
	g := sharegraph.Ring(6)
	c, err := NewCluster(g, edgeIndexed(t, g), WithMetrics(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if violations := c.RunScript(workload.Uniform(g, 400, 11)); len(violations) != 0 {
		t.Fatalf("armed run violations: %v", violations)
	}
	m := c.Metrics()
	if m.Runtime != "cluster" {
		t.Errorf("runtime = %q, want cluster", m.Runtime)
	}
	if m.Messages != c.MessagesSent() || m.MetaBytes != c.MetaBytes() {
		t.Errorf("legacy totals diverge: %d/%d vs %d/%d",
			m.Messages, m.MetaBytes, c.MessagesSent(), c.MetaBytes())
	}
	if len(m.Replicas) != g.NumReplicas() {
		t.Fatalf("replica breakdown has %d rows, want %d", len(m.Replicas), g.NumReplicas())
	}
	var sent, bytes, delivered, edgeDelivered int64
	for _, e := range m.Edges {
		sent += e.Sent
		bytes += e.Bytes
		edgeDelivered += e.Delivered
	}
	for _, r := range m.Replicas {
		delivered += r.Delivered
	}
	if sent != m.Messages {
		t.Errorf("edge sent sum = %d, want messages %d", sent, m.Messages)
	}
	if bytes != m.MetaBytes {
		t.Errorf("edge byte sum = %d, want meta bytes %d", bytes, m.MetaBytes)
	}
	// Quiesced: everything sent was delivered, and edge attribution
	// agrees with the per-replica counters.
	if delivered != m.Messages || edgeDelivered != m.Messages {
		t.Errorf("delivered sums = %d (replica) / %d (edge), want %d",
			delivered, edgeDelivered, m.Messages)
	}
	if m.Outstanding != 0 || m.Parked != 0 {
		t.Errorf("quiesced cluster reports outstanding=%d parked=%d", m.Outstanding, m.Parked)
	}

}

// TestClusterMetricsDisarmed pins the disarmed contract at the public
// surface: Metrics still reports the legacy totals, but no breakdowns
// exist.
func TestClusterMetricsDisarmed(t *testing.T) {
	g := sharegraph.Ring(4)
	c, err := NewCluster(g, edgeIndexed(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if violations := c.RunScript(workload.Uniform(g, 100, 5)); len(violations) != 0 {
		t.Fatalf("violations: %v", violations)
	}
	m := c.Metrics()
	if m.Messages == 0 || m.MetaBytes == 0 {
		t.Error("disarmed Metrics lost the legacy totals")
	}
	if m.Replicas != nil || m.Edges != nil || m.Queues != nil {
		t.Errorf("disarmed Metrics carries breakdowns: %+v", m)
	}
}

// TestClusterMetricsDisarmedZeroAlloc asserts the acceptance criterion
// from the chaos-hook precedent: with the registry disarmed, the
// write-and-deliver hot path allocates exactly as much as before the
// observability layer existed — nothing in steady state.
func TestClusterMetricsDisarmedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool sheds items, so alloc accounting is meaningless")
	}
	g := sharegraph.Ring(4)
	c, err := NewCluster(g, edgeIndexed(t, g), WithoutAudit(), WithWorkers(1), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	regs := g.Registers()
	reg := regs[0]
	owner := g.Holders(reg)[0]
	cycle := func() {
		for i := 0; i < 64; i++ {
			if err := c.Write(owner, reg, 1); err != nil {
				t.Fatal(err)
			}
		}
		c.Quiesce()
	}
	for i := 0; i < 16; i++ { // warm pools, slice capacities and inboxes
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("disarmed metrics hot path allocates: %.2f allocs per 64-write cycle", avg)
	}
}

// TestClusterUniformUnderChaos runs multi-writer traffic over the fault
// layer: 5 % loss and 5 % duplication on every edge must break neither
// safety nor liveness when every replica writes concurrently.
func TestClusterUniformUnderChaos(t *testing.T) {
	g := sharegraph.Ring(5)
	c, err := NewCluster(g, edgeIndexed(t, g), WithSeed(7),
		WithChaos(rt.FaultPlan{Seed: 31, Default: rt.EdgeFault{Drop: 0.05, Dup: 0.05}}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if violations := c.RunScript(workload.Uniform(g, 300, 23)); len(violations) != 0 {
		t.Errorf("uniform chaos violations: %v", violations)
	}
	// PendingTotal is not asserted zero: duplicated envelopes dead-park in
	// the per-sender ingest queues by design (see TestChaosSoak). The
	// oracle's liveness audit above is the authoritative check.
	m := c.Metrics()
	if m.Dropped == 0 && m.Duped == 0 {
		t.Log("chaos plan injected no faults this run (acceptable, seeded lottery)")
	}
}

// TestClusterMetricsSnapshotRace hammers Metrics from a scraper
// goroutine while a workload runs — the /statusz pattern. Run under
// -race this pins that live snapshots are safe.
func TestClusterMetricsSnapshotRace(t *testing.T) {
	g := sharegraph.Ring(5)
	c, err := NewCluster(g, edgeIndexed(t, g), WithMetrics(), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				s := c.Metrics()
				_ = obs.EdgeKey(0, 1)
				if s.Messages < 0 {
					panic("negative message count")
				}
			}
		}
	}()
	if violations := c.RunScript(workload.Uniform(g, 300, 13)); len(violations) != 0 {
		t.Errorf("violations under concurrent scraping: %v", violations)
	}
	close(stop)
	<-done
}
