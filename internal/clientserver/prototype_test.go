package clientserver

// Tests of the fold itself: a Server is one node of core's prototype over
// the augmented timestamp graphs plus the client layer, so it must count
// what the hand-written server counted, agree with the prototype's
// reference drain, and never let the client layer's µ raise move a gate.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/timestamp"
	"repro/internal/transport"
)

// e14Run is the Appendix E bridge-system script of the former
// BenchmarkE14ClientServer, kept because TestRunCountersPinned pins it.
func e14Run(sys *System, seed int64) RunConfig {
	return RunConfig{Sys: sys, Sched: transport.NewRandom(seed), Scripts: [][]ClientOp{
		{{Reg: "a"}, {Reg: "b"}, {Reg: "a", IsRead: true}},
		{{Reg: "c"}, {Reg: "c", IsRead: true}},
	}}
}

// TestRunCountersPinned holds seeded runs to the counters the hand-written
// server (the parent of the commit that folded Server into the prototype)
// reported for them: the fold changed who buffers and merges, not what is
// sent or how large it is.
func TestRunCountersPinned(t *testing.T) {
	bridge, geo := bridgeSystem(t, true), geoSocialSystem(t)
	for _, row := range []struct {
		name                                               string
		cfg                                                RunConfig
		steps, requests, responses, updatesSent, metaBytes int
	}{
		{"bridge/1", bridgeSweepRun(bridge, 1), 40, 11, 11, 7, 203},
		{"bridge/2", bridgeSweepRun(bridge, 2), 39, 11, 11, 6, 196},
		{"bridge/3", bridgeSweepRun(bridge, 3), 41, 11, 11, 8, 210},
		{"geo/0", geoSocialRun(geo, 0), 52, 15, 15, 7, 291},
		{"geo/7", geoSocialRun(geo, 7), 67, 19, 19, 10, 382},
		{"geo/24", geoSocialRun(geo, 24), 70, 19, 19, 13, 391},
		{"fig5/0", fig5PinnedRun(t, 0), 31, 8, 8, 7, 235},
		{"fig5/9", fig5PinnedRun(t, 9), 31, 8, 8, 7, 235},
		{"e14/0", e14Run(bridge, 0), 18, 5, 5, 3, 91},
		{"e14/5", e14Run(bridge, 5), 18, 5, 5, 3, 91},
	} {
		res, err := Run(row.cfg)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if !res.Ok() {
			t.Errorf("%s: not clean: %+v", row.name, res)
		}
		got := [5]int{res.Steps, res.Requests, res.Responses, res.UpdatesSent, res.MetaBytes}
		want := [5]int{row.steps, row.requests, row.responses, row.updatesSent, row.metaBytes}
		if got != want {
			t.Errorf("%s: steps/requests/responses/updates/metaBytes = %v, pinned %v", row.name, got, want)
		}
	}
}

// TestIndexedMatchesRescanDrain is the indexed-vs-reference differential
// every prototype protocol has, for client-server: the same seeded runs on
// a system whose servers use the prototype's Rescan() twin.
func TestIndexedMatchesRescanDrain(t *testing.T) {
	rescan := func(sys *System) *System {
		sys.proto = sys.proto.Rescan()
		return sys
	}
	for _, c := range []struct {
		name     string
		sys, ref *System
		run      func(*System, int64) RunConfig
	}{
		{"bridge", bridgeSystem(t, true), rescan(bridgeSystem(t, true)), bridgeSweepRun},
		{"geosocial", geoSocialSystem(t), rescan(geoSocialSystem(t)), geoSocialRun},
	} {
		for seed := int64(0); seed < 120; seed++ {
			var got [2]*RunResult
			for side, sys := range []*System{c.sys, c.ref} {
				cfg := c.run(sys, seed)
				cfg.CaptureState = true
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s seed %d: %v", c.name, seed, err)
				}
				got[side] = res
			}
			if !got[0].Ok() || !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("%s seed %d: indexed and reference drains diverge:\nindexed: %+v\nrescan:  %+v",
					c.name, seed, got[0], got[1])
			}
		}
	}
}

// TestRaiseMovesNoGate checks the one invariant core.Layered.RaiseTau
// leaves to its caller: across whole seeded runs, every event at a server
// — a request served at once, an update applied, buffered requests served
// behind it — moves the gate counter of each sender by exactly the number
// of that sender's updates it applied. A µ raise that reached a gate would
// show as a jump no apply accounts for.
func TestRaiseMovesNoGate(t *testing.T) {
	raises := 0
	for _, c := range []struct {
		sys *System
		run func(*System, int64) RunConfig
	}{
		{bridgeSystem(t, true), bridgeSweepRun},
		{geoSocialSystem(t), geoSocialRun},
	} {
		sys := c.sys
		space, err := timestamp.NewSpace(sys.Aug.G, sys.ReplicaGraphs)
		if err != nil {
			t.Fatal(err)
		}
		clock := core.SpaceClocks(space)
		for seed := int64(0); seed < 60; seed++ {
			scripts := c.run(sys, seed).Scripts
			h := newHost(t, sys)
			clients := make([]*Client, len(scripts))
			for i := range clients {
				clients[i] = NewClient(sys, sharegraph.ClientID(i))
			}
			awaiting := make([]bool, len(scripts))
			rng := transport.NewRandom(seed)
			var pool []event
			for {
				// Issue the next op of every idle client, then deliver one
				// message at random; a response re-arms its client.
				for i, cl := range clients {
					if awaiting[i] || len(scripts[i]) == 0 {
						continue
					}
					op := scripts[i][0]
					scripts[i] = scripts[i][1:]
					req, err := cl.NewRequest(op.Reg, core.Value(len(pool)+1), op.IsRead)
					if err != nil {
						t.Fatal(err)
					}
					pool = append(pool, event{kind: evRequest, req: req})
					awaiting[i] = true
				}
				if len(pool) == 0 {
					break
				}
				at := rng.Pick(len(pool))
				ev := pool[at]
				pool = append(pool[:at], pool[at+1:]...)
				if ev.kind == evResponse {
					clients[ev.resp.Client].AbsorbResponse(ev.resp)
					awaiting[ev.resp.Client] = false
					continue
				}
				s := h.servers[ev.req.Replica]
				if ev.kind == evUpdate {
					s = h.servers[ev.update.To]
				}
				before := s.Timestamp()
				var applies []core.Applied
				if ev.kind == evUpdate {
					applies = h.update(ev.update)
				} else {
					if view := sys.views[ev.req.Client][s.ID()]; !ev.req.IsRead && s.requestReady(ev.req) &&
						!view.raise.Dominates(before, ev.req.Mu) {
						raises++
					}
					h.request(ev.req)
				}
				applied := make(map[sharegraph.ReplicaID]uint64)
				for _, a := range applies {
					applied[a.From]++
				}
				for k, from := range clock(s.ID()).Senders() {
					if moved := s.Tau()[from.GatePos] - before[from.GatePos]; from.Tracked && moved != applied[sharegraph.ReplicaID(k)] {
						t.Fatalf("seed %d: replica %d's gate for sender %d moved by %d with %d applies from it",
							seed, s.ID(), k, moved, applied[sharegraph.ReplicaID(k)])
					}
				}
				for _, u := range h.out.Envs {
					pool = append(pool, event{kind: evUpdate, update: u})
				}
				for _, r := range h.responses {
					pool = append(pool, event{kind: evResponse, resp: r})
				}
			}
			for _, s := range h.servers {
				if s.PendingUpdates()+s.PendingRequests() != 0 {
					t.Fatalf("seed %d: replica %d ended with %d updates and %d requests buffered",
						seed, s.ID(), s.PendingUpdates(), s.PendingRequests())
				}
			}
		}
	}
	if raises == 0 {
		t.Error("no write ever raised τ: the property was checked on nothing")
	}
}
