package clientserver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// host is a single-threaded, unaudited client-server host for tests that
// drive servers by hand: the system's servers in a sim.Space, one
// sim.Batch for the updates a step emits, and the responses it produced.
// Each step clears both first.
type host struct {
	t         testing.TB
	sp        *sim.Space
	servers   []*Server
	out       *sim.Batch
	responses []Response
}

func newHost(t testing.TB, sys *System) *host {
	t.Helper()
	h := &host{t: t}
	sp, servers, err := newSpace(sys, false, func(r Response) { h.responses = append(h.responses, r) })
	if err != nil {
		t.Fatal(err)
	}
	h.sp, h.servers, h.out = sp, servers, new(sim.Batch).For(sp)
	return h
}

func (h *host) reset() {
	h.out.Envs, h.responses = h.out.Envs[:0], h.responses[:0]
}

// request hands req to the server it names, through the Space, and
// reports whether the server took it.
func (h *host) request(req Request) bool {
	h.reset()
	took := false
	if err := h.sp.Do(req.Replica, func(n core.Node) error {
		took = n.(*Server).HandleRequest(req, h.out)
		return nil
	}); err != nil {
		h.t.Fatal(err)
	}
	return took
}

// update delivers env at its destination and returns the updates
// applied there; the Space recycles env.Meta.
func (h *host) update(env core.Envelope) []core.Applied {
	h.reset()
	return h.sp.Deliver(env, h.out)
}
