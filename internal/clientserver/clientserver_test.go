package clientserver

import (
	"testing"
	"testing/quick"

	"repro/internal/causality"
	"repro/internal/sharegraph"
	"repro/internal/timestamp"
	"repro/internal/transport"
)

// bridgeSystem: replicas 0–1 share a, 2–3 share b, 0–3 share c; client 0
// accesses {1, 2} (the causal bridge), client 1 accesses {0, 3}.
func bridgeSystem(t *testing.T, augmented bool) *System {
	t.Helper()
	g, err := sharegraph.New([][]sharegraph.Register{
		{"a", "c"},
		{"a", "p1"},
		{"b", "p2"},
		{"b", "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Client 1 lists replica 3 first so PickReplica routes register c
	// there (replica order expresses client preference).
	aug, err := sharegraph.NewAugmented(g, sharegraph.ClientAssignment{{1, 2}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if augmented {
		return NewSystem(aug)
	}
	return NewSystemWithPlainGraphs(aug)
}

// TestClientBridgePropagatesDependency is the Appendix E headline: a
// client writing at two replicas that share nothing creates a causal
// chain that must block a transitively dependent update elsewhere. With
// augmented timestamp graphs the system is safe; with plain Definition 5
// graphs the same schedule violates safety.
func TestClientBridgePropagatesDependency(t *testing.T) {
	run := func(sys *System) []causality.Violation {
		// Client 0 writes a at replica 1 (u1 → replica 0, delayed), then
		// writes b at replica 2 (u2 → replica 3). Replica 3 applies u2,
		// then client 1 writes c at replica 3 (u3 → replica 0). u3 arrives
		// at replica 0 before u1: u1 ↪′ u2 ↪′ u3 and a ∈ X_0, so applying
		// u3 first violates safety.
		scripts := [][]ClientOp{
			{{Reg: "a"}, {Reg: "b"}},
			{{Reg: "c"}},
		}
		// Schedule choices, traced through Run's choice enumeration:
		//  1. client0 issues write(a)@1     → pool [req(a@1)]
		//  2. deliver req(a@1): served      → pool [upd(a→0), resp→c0]
		//  3. deliver resp→c0               → pool [upd(a→0)]
		//  4. client0 issues write(b)@2     → pool [upd(a→0), req(b@2)]
		//  5. deliver req(b@2)              → pool [upd(a→0), upd(b→3), resp→c0]
		//  6. deliver upd(b→3)              → applied at 3
		//  7. client1 issues write(c)@3     → ... wait: client1 idle all along.
		// Client1 is idle from the start, so the idle list is [c0, c1] at
		// step 1 and choices shift; use explicit picks computed below.
		res, err := Run(RunConfig{
			Sys:     sys,
			Scripts: scripts,
			// Step-by-step picks (idle clients enumerate before pool):
			//  s1: idle=[c0,c1] pool=[]                pick 0 → c0 write(a)@1
			//  s2: idle=[c1] pool=[req(a@1)]           pick 1 → serve req: upd(a→0), resp
			//  s3: idle=[c1] pool=[upd(a→0),resp]      pick 2 → resp to c0
			//  s4: idle=[c0,c1] pool=[upd(a→0)]        pick 0 → c0 write(b)@2
			//  s5: idle=[c1] pool=[upd(a→0),req(b@2)]  pick 2 → serve req: upd(b→3), resp
			//  s6: idle=[c1] pool=[upd(a→0),upd(b→3),resp] pick 2 → apply b at 3
			//  s7: idle=[c1] pool=[upd(a→0),resp]      pick 0 → c1 write(c)@3
			//  s8: idle=[] pool=[upd(a→0),resp,req(c@3)] pick 2 → serve: upd(c→0), resp
			//  s9: idle=[] pool=[upd(a→0),resp,upd(c→0),resp] pick 2 → deliver upd(c→0) FIRST
			//  rest: FIFO drains upd(a→0), responses.
			Sched: transport.NewScripted(0, 1, 2, 0, 2, 2, 0, 2, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Violations
	}

	if vs := run(bridgeSystem(t, true)); len(vs) != 0 {
		t.Errorf("augmented system violated consistency: %v", vs)
	}
	vs := run(bridgeSystem(t, false))
	sawSafety := false
	for _, v := range vs {
		if v.Kind == causality.SafetyViolation {
			sawSafety = true
		}
	}
	if !sawSafety {
		t.Errorf("plain graphs should violate safety on the bridge schedule; got %v", vs)
	}
}

// TestReadYourWritesAcrossReplicas: after writing a at replica 1, a client
// read of a at... replica 1 is the only holder the client can reach, but
// client 1 (accessing replicas 0 and 3) must see the write of c propagate:
// J1 blocks its read at replica 0 until the c-update arrives.
func TestJ1BlocksStaleRead(t *testing.T) {
	sys := bridgeSystem(t, true)
	h := newHost(t, sys)
	client := NewClient(sys, 1) // accesses replicas 0 and 3

	// Client writes c at replica 3 (c stored at 0 and 3).
	req, err := client.NewRequest("c", 9, false)
	if err != nil {
		t.Fatal(err)
	}
	if req.Replica != 0 {
		// PickReplica chooses the lowest-numbered holder (replica 0); force
		// replica 3 to stage the propagation scenario.
		req.Replica = 3
	}
	req.Replica = 3
	h.request(req)
	if len(h.responses) != 1 || len(h.out.Envs) != 1 {
		t.Fatalf("write outcome: %+v, %+v", h.responses, h.out.Envs)
	}
	client.AbsorbResponse(h.responses[0])
	upd := h.out.Envs[0]

	// Read c at replica 0 before the update arrives: J1 must buffer it.
	read, err := client.NewRequest("c", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	read.Replica = 0
	h.request(read)
	if len(h.responses) != 0 || h.servers[0].PendingRequests() != 1 {
		t.Fatalf("stale read served immediately: %+v", h.responses)
	}

	// Deliver the c-update to replica 0: the buffered read unblocks and
	// returns the written value.
	if upd.To != 0 {
		t.Fatalf("update destination = %d, want 0", upd.To)
	}
	h.update(upd)
	if len(h.responses) != 1 {
		t.Fatalf("buffered read did not unblock: %+v", h.responses)
	}
	if h.responses[0].Val != 9 || !h.responses[0].IsRead {
		t.Errorf("read response = %+v, want value 9", h.responses[0])
	}
	if h.servers[0].PendingRequests() != 0 {
		t.Error("request still buffered")
	}
}

// bridgeSweepRun is one case of the random sweep over the bridge system:
// seeded random scripts under a seeded random schedule.
func bridgeSweepRun(sys *System, seed int64) RunConfig {
	rng := transport.NewRandom(seed)
	regsByClient := [][]sharegraph.Register{{"a", "b", "p1", "p2"}, {"a", "b", "c"}}
	scripts := make([][]ClientOp, 2)
	for c := range scripts {
		n := 3 + rng.Pick(8)
		for k := 0; k < n; k++ {
			scripts[c] = append(scripts[c], ClientOp{
				Reg:    regsByClient[c][rng.Pick(len(regsByClient[c]))],
				IsRead: rng.Pick(4) == 0,
			})
		}
	}
	return RunConfig{Sys: sys, Scripts: scripts, Sched: transport.NewRandom(seed ^ 0x77)}
}

func TestClientServerRandomSweep(t *testing.T) {
	// Random scripts over the bridge system under random schedules must
	// always be clean with augmented graphs.
	sys := bridgeSystem(t, true)
	prop := func(seed int64) bool {
		res, err := Run(bridgeSweepRun(sys, seed))
		if err != nil {
			t.Log(err)
			return false
		}
		if !res.Ok() {
			t.Logf("seed %d: %+v", seed, res)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// fig5PinnedRun is Fig5Example with one client pinned to each replica.
func fig5PinnedRun(t *testing.T, seed int64) RunConfig {
	t.Helper()
	aug, err := sharegraph.NewAugmented(sharegraph.Fig5Example(), sharegraph.ClientAssignment{{0}, {1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	return RunConfig{Sys: NewSystem(aug), Sched: transport.NewRandom(seed), Scripts: [][]ClientOp{
		{{Reg: "y"}, {Reg: "a"}},
		{{Reg: "x"}, {Reg: "y", IsRead: true}},
		{{Reg: "x"}, {Reg: "z"}},
		{{Reg: "w"}, {Reg: "z"}},
	}}
}

func TestClientServerReducesToPeerToPeer(t *testing.T) {
	// One client pinned to each replica: the augmented graph equals the
	// plain share graph, and runs are clean.
	g := sharegraph.Fig5Example()
	sys := fig5PinnedRun(t, 0).Sys
	plain := sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{})
	for i, tg := range sys.ReplicaGraphs {
		if tg.Len() != plain[i].Len() {
			t.Errorf("replica %d: |Ê_i| = %d, want |E_i| = %d (single-replica clients add nothing)",
				i, tg.Len(), plain[i].Len())
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(fig5PinnedRun(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok() {
			t.Errorf("seed %d: %+v", seed, res)
		}
	}
}

// geoSocialSystem is the examples/geosocial placement with three roaming
// clients.
func geoSocialSystem(t *testing.T) *System {
	t.Helper()
	g, err := sharegraph.New([][]sharegraph.Register{
		{"global", "tech", "eu-board"},
		{"global", "sports", "us-board"},
		{"tech", "sports", "asia-board", "oceania"},
		{"oceania", "aus-board"},
	})
	if err != nil {
		t.Fatal(err)
	}
	aug, err := sharegraph.NewAugmented(g, sharegraph.ClientAssignment{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(aug)
}

// geoSocialRun is one seeded case of the sweep over geoSocialSystem.
func geoSocialRun(sys *System, seed int64) RunConfig {
	regs := [][]sharegraph.Register{
		{"global", "tech", "eu-board", "sports"},
		{"global", "sports", "tech", "oceania"},
		{"tech", "oceania", "aus-board", "sports"},
	}
	rng := transport.NewRandom(seed)
	scripts := make([][]ClientOp, 3)
	for c := range scripts {
		for k := 0; k < 4+rng.Pick(6); k++ {
			scripts[c] = append(scripts[c], ClientOp{
				Reg:    regs[c][rng.Pick(len(regs[c]))],
				IsRead: rng.Pick(3) == 0,
			})
		}
	}
	return RunConfig{Sys: sys, Scripts: scripts, Sched: transport.NewRandom(seed ^ 0xbeef)}
}

// TestGeoSocialSweep runs a larger client-server deployment — the
// examples/geosocial placement — across many random schedules, checking
// Definition 26 end to end with three roaming clients.
func TestGeoSocialSweep(t *testing.T) {
	sys := geoSocialSystem(t)
	for seed := int64(0); seed < 25; seed++ {
		res, err := Run(geoSocialRun(sys, seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ok() {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		if res.Responses != res.Requests {
			t.Fatalf("seed %d: %d responses for %d requests", seed, res.Responses, res.Requests)
		}
	}
}

func TestRunValidationAndAccessErrors(t *testing.T) {
	sys := bridgeSystem(t, true)
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(RunConfig{Sys: sys, Sched: transport.FIFOScheduler{},
		Scripts: [][]ClientOp{{}, {}, {}}}); err == nil {
		t.Error("too many scripts accepted")
	}
	// Client 0 (replicas 1,2) cannot reach register c (stored at 0,3).
	if _, err := Run(RunConfig{Sys: sys, Sched: transport.FIFOScheduler{},
		Scripts: [][]ClientOp{{{Reg: "c"}}}}); err == nil {
		t.Error("unreachable register accepted")
	}
	client := NewClient(sys, 0)
	if _, err := client.NewRequest("c", 1, false); err == nil {
		t.Error("NewRequest for unreachable register succeeded")
	}
	if client.ID() != 0 {
		t.Error("bad client id")
	}
	if client.MetadataEntries() == 0 {
		t.Error("client universe empty")
	}
	h := newHost(t, sys)
	srv := h.servers[0]
	if srv.ID() != 0 || srv.MetadataEntries() == 0 {
		t.Error("bad server identity")
	}
	// Requests that do not belong at replica 0 are refused before they
	// are buffered or index anything. Client 1 accesses {3, 0}; client 0
	// accesses {1, 2}.
	good, err := NewClient(sys, 1).NewRequest("c", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	good.Replica = 0
	for name, mutate := range map[string]func(*Request){
		"misrouted":           func(r *Request) { r.Replica = 2 },
		"negative client":     func(r *Request) { r.Client = -1 },
		"unknown client":      func(r *Request) { r.Client = 2 },
		"replica not in Rc":   func(r *Request) { r.Client = 0; r.Mu = make(timestamp.Vec, sys.ClientGraphs[0].Len()) },
		"short µ":             func(r *Request) { r.Mu = r.Mu[:len(r.Mu)-1] },
		"nil µ":               func(r *Request) { r.Mu = nil },
		"register not stored": func(r *Request) { r.Reg = "b" },
	} {
		req := good
		mutate(&req)
		if srv.HandleRequest(req, h.out) || srv.PendingRequests() != 0 {
			t.Errorf("%s request processed", name)
		}
	}
	if !h.request(good) {
		t.Error("well-formed request refused")
	}
	if _, ok := srv.Read("b"); ok {
		t.Error("Read of unstored register ok")
	}
	if len(srv.Timestamp()) != srv.MetadataEntries() {
		t.Error("timestamp length mismatch")
	}
}
