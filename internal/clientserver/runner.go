package clientserver

import (
	"fmt"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/timestamp"
	"repro/internal/transport"
)

// ClientOp is one operation of a client script.
type ClientOp struct {
	Reg    sharegraph.Register
	IsRead bool
	// Val pins the written value; 0 lets the runner assign from its
	// shared counter. Differential tests pin values so the deterministic
	// runner and the live system write identical data.
	Val core.Value
}

// RunConfig configures one deterministic client-server run.
type RunConfig struct {
	Sys *System
	// Scripts[c] is client c's program; a client issues its next request
	// only after absorbing the response to the previous one.
	Scripts [][]ClientOp
	Sched   transport.Scheduler
	// MaxSteps bounds the run; 0 derives a bound from the script sizes.
	MaxSteps int
	// CaptureState fills RunResult.FinalState with each replica's
	// register contents at the end of the run, for differential
	// comparison against the live system.
	CaptureState bool
}

// RunResult holds measurements and oracle verdicts for one run.
type RunResult struct {
	Steps         int
	Requests      int
	Responses     int
	UpdatesSent   int
	MetaBytes     int
	Violations    []causality.Violation
	StuckUpdates  int
	StuckRequests int
	UnfinishedOps int
	ServerEntries []int
	ClientEntries []int
	// FinalState holds each replica's register contents at the end of the
	// run (only the registers it genuinely stores). Nil unless
	// RunConfig.CaptureState was set.
	FinalState []map[sharegraph.Register]core.Value
}

// Ok reports a fully clean run: no violations, nothing stuck, all client
// programs completed.
func (r *RunResult) Ok() bool {
	return len(r.Violations) == 0 && r.StuckUpdates == 0 && r.StuckRequests == 0 && r.UnfinishedOps == 0
}

// event is one in-flight message of the client-server runner, held by
// value: an update's Meta comes from the space's pool and returns to it
// at delivery, a response's Tau goes to the client that absorbs it.
type event struct {
	kind   eventKind
	req    Request
	resp   Response
	update core.Envelope
}

type eventKind uint8

const (
	evRequest eventKind = iota
	evResponse
	evUpdate
)

// Run executes the client scripts to quiescence under the scheduler,
// auditing with the causality oracle (including the client clauses of
// Definitions 25 and 26). Client requests and responses are events of
// the run's own scheduler; the servers live in a sim.Space, which serves
// a request (Do) and delivers an update (Deliver).
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Sys == nil || cfg.Sched == nil {
		return nil, fmt.Errorf("clientserver: Sys and Sched are required")
	}
	aug := cfg.Sys.Aug
	nClients := aug.NumClients()
	if len(cfg.Scripts) > nClients {
		return nil, fmt.Errorf("clientserver: %d scripts for %d clients", len(cfg.Scripts), nClients)
	}
	nReplicas := aug.G.NumReplicas()
	var responses []Response // one event's, pooled after its updates
	sp, servers, err := newSpace(cfg.Sys, true, func(r Response) { responses = append(responses, r) })
	if err != nil {
		return nil, err
	}
	clients := make([]*Client, nClients)
	for c := range clients {
		clients[c] = NewClient(cfg.Sys, sharegraph.ClientID(c))
	}
	res := &RunResult{}

	scripts := make([][]ClientOp, nClients)
	copy(scripts, cfg.Scripts)
	awaiting := make([]bool, nClients) // client has a request in flight
	totalOps := 0
	for _, s := range scripts {
		totalOps += len(s)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = (totalOps+1)*(nReplicas+4) + 64
	}

	var pool []event
	out := new(sim.Batch).For(sp)
	nextVal := core.Value(1)

	// stage moves what one event produced into the pool.
	stage := func() {
		for _, u := range out.Envs {
			res.UpdatesSent++
			res.MetaBytes += len(u.Meta)
			pool = append(pool, event{kind: evUpdate, update: u})
		}
		for _, r := range responses {
			res.Responses++
			res.MetaBytes += timestamp.EncodedSize(r.Tau)
			pool = append(pool, event{kind: evResponse, resp: r})
		}
		out.Envs, responses = out.Envs[:0], responses[:0]
	}

	for step := 0; step < maxSteps; step++ {
		var idle []int // clients ready to issue their next op
		for c := 0; c < nClients; c++ {
			if !awaiting[c] && len(scripts[c]) > 0 {
				idle = append(idle, c)
			}
		}
		total := len(idle) + len(pool)
		if total == 0 {
			res.Steps = step
			break
		}
		choice := cfg.Sched.Pick(total)
		if choice < len(idle) {
			c := idle[choice]
			op := scripts[c][0]
			scripts[c] = scripts[c][1:]
			v := op.Val
			if v == 0 {
				v = nextVal
				nextVal++
			}
			req, err := clients[c].NewRequest(op.Reg, v, op.IsRead)
			if err != nil {
				return nil, err
			}
			awaiting[c] = true
			res.Requests++
			res.MetaBytes += timestamp.EncodedSize(req.Mu)
			pool = append(pool, event{kind: evRequest, req: req})
		} else {
			ev := pool[choice-len(idle)]
			pool = append(pool[:choice-len(idle)], pool[choice-len(idle)+1:]...)
			switch ev.kind {
			case evRequest:
				if err := sp.Do(ev.req.Replica, func(n core.Node) error {
					n.(*Server).HandleRequest(ev.req, out)
					return nil
				}); err != nil {
					return nil, fmt.Errorf("clientserver: %w", err)
				}
				stage()
			case evUpdate:
				sp.Deliver(ev.update, out)
				stage()
			case evResponse:
				clients[ev.resp.Client].AbsorbResponse(ev.resp)
				awaiting[ev.resp.Client] = false
			}
		}
		res.Steps = step + 1
	}

	for _, s := range servers {
		res.StuckUpdates += s.PendingUpdates()
		res.StuckRequests += s.PendingRequests()
		res.ServerEntries = append(res.ServerEntries, s.MetadataEntries())
	}
	if cfg.CaptureState {
		res.FinalState = sp.State()
	}
	for c, cl := range clients {
		res.ClientEntries = append(res.ClientEntries, cl.MetadataEntries())
		res.UnfinishedOps += len(scripts[c])
		if awaiting[c] {
			res.UnfinishedOps++
		}
	}
	res.Violations = sp.Audit()
	return res, nil
}
