package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"log"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/causality"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

// hostProtocol is a core.Protocol whose nodes are Hosts that speak
// frames, so sim.Run drives the deployed replica's own logic — checks,
// log, ID issue, counters — under its seeded scheduler, and its oracle
// judges it. Frames carry no oracle ID; the harness restores each applied
// update's ID from a value → ID table filled at every write, which needs
// every written value to be unique.
//
// With crashAt set, the victim's host is crashed before each numbered
// call: rebuilt from a fresh node plus Replay of its own log bytes. The
// frames in flight sit in sim.Run's pool, so nothing is lost.
type hostProtocol struct {
	t    testing.TB
	base core.Protocol
	g    *sharegraph.Graph
	ids  map[core.Value]causality.UpdateID

	nodes   []*hostNode
	victim  int
	crashAt map[int]bool
	calls   int
	crashes int
}

func (p *hostProtocol) Name() string { return p.base.Name() }

func (p *hostProtocol) NewNodes() ([]core.Node, error) {
	nodes, err := p.base.NewNodes()
	if err != nil {
		return nil, err
	}
	p.ids = make(map[core.Value]causality.UpdateID)
	p.nodes = make([]*hostNode, len(nodes))
	out := make([]core.Node, len(nodes))
	for i, node := range nodes {
		hn := &hostNode{Node: node, p: p, log: new(bytes.Buffer)}
		hn.h = NewHost(p.g, sharegraph.ReplicaID(i), node, hn.log)
		p.nodes[i], out[i] = hn, hn
	}
	return out, nil
}

// tick counts one call into any host and crashes the victim first when
// the call is a crash point.
func (p *hostProtocol) tick() {
	if p.crashAt[p.calls] {
		p.crash(p.nodes[p.victim])
	}
	p.calls++
}

// crash rebuilds hn's host from its log and requires the rebuilt replica
// to be the one that crashed: registers, pending updates and counters.
func (p *hostProtocol) crash(hn *hostNode) {
	p.t.Helper()
	fresh, err := p.base.NewNodes()
	if err != nil {
		p.t.Fatal(err)
	}
	self := hn.h.self
	h := NewHost(p.g, self, fresh[self], hn.log)
	good, err := h.Replay(bytes.NewReader(hn.log.Bytes()))
	if err != nil || good != int64(hn.log.Len()) {
		p.t.Fatalf("replica %d: replay stopped at %d of %d log bytes: %v", self, good, hn.log.Len(), err)
	}
	if got, want := h.Status(), hn.h.Status(); got != want {
		p.t.Fatalf("replica %d: replayed counters %+v, want %+v", self, got, want)
	}
	gotRegs, gotVals := h.Snapshot()
	wantRegs, wantVals := hn.h.Snapshot()
	if !reflect.DeepEqual(gotRegs, wantRegs) || !reflect.DeepEqual(gotVals, wantVals) {
		p.t.Fatalf("replica %d: replayed registers %v=%v, want %v=%v", self, gotRegs, gotVals, wantRegs, wantVals)
	}
	hn.h, hn.Node = h, fresh[self]
	p.crashes++
}

// hostNode is one replica as sim.Run sees it: client writes and message
// deliveries become Write and Update frames stepped through its Host.
type hostNode struct {
	core.Node // the host's node: Read, PendingCount and the rest
	p         *hostProtocol
	h         *Host
	log       *bytes.Buffer
	frame     []byte
	applied   []core.Applied
}

func (n *hostNode) HandleWrite(x sharegraph.Register, v core.Value, id causality.UpdateID, out core.Sink) error {
	n.p.tick()
	if _, dup := n.p.ids[v]; dup {
		n.p.t.Fatalf("value %d written twice: the value → ID table needs unique values", v)
	}
	n.p.ids[v] = id
	n.frame = AppendWrite(n.frame[:0], x, v)
	_, _, err := n.h.Step(ClientID, n.frame, out)
	return err
}

func (n *hostNode) HandleMessage(env core.Envelope, out core.Sink) []core.Applied {
	n.p.tick()
	n.frame = AppendUpdate(n.frame[:0], env)
	_, applied, err := n.h.Step(int(env.From), n.frame, out)
	if err != nil {
		n.p.t.Fatalf("replica %d refused a genuine update from %d: %v", env.To, env.From, err)
	}
	n.h.Received()
	n.applied = n.applied[:0]
	for _, a := range applied {
		id, ok := n.p.ids[a.Val]
		if !ok {
			n.p.t.Fatalf("replica %d applied value %d that no write issued", env.To, a.Val)
		}
		a.OracleID = id
		n.applied = append(n.applied, a)
	}
	return n.applied
}

// hostCase is one graph the host harness runs: the oracle's graph, the
// protocol and a script generator.
type hostCase struct {
	name   string
	g      *sharegraph.Graph
	proto  core.Protocol
	script func(seed int64) workload.Script
}

func hostCases(t *testing.T) []hostCase {
	edge := func(g *sharegraph.Graph) core.Protocol {
		p, err := cli.Protocol("edge-indexed", g)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rb, err := optimize.BreakRing(6)
	if err != nil {
		t.Fatal(err)
	}
	var cases []hostCase
	for _, c := range []struct {
		name  string
		g     *sharegraph.Graph
		proto core.Protocol
	}{
		{"ring4", sharegraph.Ring(4), edge(sharegraph.Ring(4))},
		{"ring8", sharegraph.Ring(8), edge(sharegraph.Ring(8))},
		{"fig5", sharegraph.Fig5Example(), edge(sharegraph.Fig5Example())},
		{"breakring6", rb.Base(), rb},
	} {
		g := c.g
		cases = append(cases, hostCase{c.name, g, c.proto, func(seed int64) workload.Script {
			if seed%2 == 0 {
				return workload.SharedOnly(g, 150, seed)
			}
			return workload.OwnerWrites(g, 150, seed)
		}})
	}
	return cases
}

// runHosts is one sim.Run over host-backed nodes, with crashes when
// crashes > 0.
func runHosts(t *testing.T, c hostCase, seed int64, crashes int) (*sim.Result, *hostProtocol) {
	t.Helper()
	script := c.script(seed)
	p := &hostProtocol{t: t, base: c.proto, g: c.g, victim: int(seed) % c.g.NumReplicas()}
	if crashes > 0 {
		rng := rand.New(rand.NewSource(seed))
		p.crashAt = make(map[int]bool)
		for len(p.crashAt) < crashes {
			p.crashAt[rng.Intn(len(script))] = true
		}
	}
	res, err := sim.Run(sim.Config{Graph: c.g, Protocol: p, Script: script, Sched: transport.NewRandom(seed), CaptureState: true})
	if err != nil {
		t.Fatal(err)
	}
	return res, p
}

// sameRun reports the first field on which two sim.Run results differ.
func sameRun(got, want *sim.Result) string {
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Steps", got.Steps, want.Steps},
		{"MessagesSent", got.MessagesSent, want.MessagesSent},
		{"MetaBytes", got.MetaBytes, want.MetaBytes},
		{"MetaOnlyMessages", got.MetaOnlyMessages, want.MetaOnlyMessages},
		{"Applies", got.Applies, want.Applies},
		{"DeliveryDelayTotal", got.DeliveryDelayTotal, want.DeliveryDelayTotal},
		{"DeliveryDelayMax", got.DeliveryDelayMax, want.DeliveryDelayMax},
		{"DeliveryCount", got.DeliveryCount, want.DeliveryCount},
		{"StuckPending", got.StuckPending, want.StuckPending},
		{"FinalState", got.FinalState, want.FinalState},
		{"Violations", len(got.Violations), len(want.Violations)},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return f.name
		}
	}
	return ""
}

// TestHostUnderOracle runs sim.Run over host-backed nodes — the deployed
// replica's logic, frames in and frames out — and requires every run to
// equal sim.Run over the plain protocol field for field, with the oracle
// silent, on Ring(4), Ring(8), Figure 5 and the Figure 13 ring break (a
// relay, audited on its base ring), seeds 1–20.
func TestHostUnderOracle(t *testing.T) {
	for _, c := range hostCases(t) {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				want, err := sim.Run(sim.Config{Graph: c.g, Protocol: c.proto, Script: c.script(seed), Sched: transport.NewRandom(seed), CaptureState: true})
				if err != nil {
					t.Fatal(err)
				}
				if !want.Ok() {
					t.Fatalf("seed %d: plain run is not clean: %s", seed, want.Summary())
				}
				got, _ := runHosts(t, c, seed, 0)
				if f := sameRun(got, want); f != "" {
					t.Fatalf("seed %d: host run differs in %s:\nhost:  %s\nplain: %s", seed, f, got.Summary(), want.Summary())
				}
			}
		})
	}
}

// TestHostCrashReplay crashes one host at five seeded instants per run
// and rebuilds it from a fresh node plus its own log: each rebuilt
// replica must equal the crashed one (checked at the crash), and the run
// must equal the uncrashed one field for field.
func TestHostCrashReplay(t *testing.T) {
	const crashes = 5
	for _, c := range hostCases(t) {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				want, _ := runHosts(t, c, seed, 0)
				got, p := runHosts(t, c, seed, crashes)
				if p.crashes != crashes {
					t.Fatalf("seed %d: %d of %d crash points reached", seed, p.crashes, crashes)
				}
				if f := sameRun(got, want); f != "" || !got.Ok() {
					t.Fatalf("seed %d: crashed run differs in %q:\ncrashed: %s\nwhole:   %s", seed, f, got.Summary(), want.Summary())
				}
			}
		})
	}
}

// FuzzHostFrames feeds arbitrary (link, frame) sequences into replica 0
// of Ring(3). The host must never panic, never apply an Update whose
// sender is not the link's identity or whose destination is not the
// host, change nothing on a frame it refuses, and replaying its log into
// a fresh host must reproduce its registers, pending count and counters
// exactly. Input: records of one link byte (b mod 4 − 1: the client or
// replica 0–2) and one length-prefixed frame.
func FuzzHostFrames(f *testing.F) {
	g := sharegraph.Ring(3)
	proto, err := cli.Protocol("edge-indexed", g)
	if err != nil {
		f.Fatal(err)
	}
	src, err := proto.NewNodes()
	if err != nil {
		f.Fatal(err)
	}
	update := func(r sharegraph.ReplicaID, reg sharegraph.Register, to sharegraph.ReplicaID) []byte {
		out, err := core.CollectWrite(src[r], reg, 7, 0)
		if err != nil {
			f.Fatal(err)
		}
		for _, env := range out {
			if env.To == to {
				return AppendUpdate(nil, env)
			}
		}
		f.Fatalf("write of %s at %d sends nothing to %d", reg, r, to)
		return nil
	}
	record := func(link int, frame []byte) []byte { return append([]byte{byte(link + 1)}, frame...) }
	upd1 := update(1, "ring0", 0)
	write := AppendWrite(nil, "ring0", 5)
	truncated := append([]byte(nil), upd1[:len(upd1)-3]...)
	binary.BigEndian.PutUint32(truncated, uint32(len(truncated)-4))
	f.Add(record(1, upd1))
	f.Add(append(record(ClientID, write), record(1, upd1)...))
	f.Add(record(1, update(2, "ring2", 0)))                          // spoofed sender
	f.Add(record(0, update(0, "ring0", 1)))                          // misrouted: for replica 1
	f.Add(record(1, truncated))                                      // truncated body
	f.Add(record(1, []byte{0, 0, 0, 4, magic0, magic1, Version, 7})) // kind 7

	f.Fuzz(func(t *testing.T, data []byte) {
		old := log.Writer()
		log.SetOutput(io.Discard) // the node logs the metadata it drops
		defer log.SetOutput(old)

		newHost := func(w io.Writer) *Host {
			nodes, err := proto.NewNodes()
			if err != nil {
				t.Fatal(err)
			}
			return NewHost(g, 0, nodes[0], w)
		}
		var logBuf bytes.Buffer
		h := newHost(&logBuf)
		r := bytes.NewReader(data)
		var buf []byte
		for {
			b, err := r.ReadByte()
			if err != nil {
				break
			}
			frame, err := readFrame(r, &buf)
			if err != nil {
				break
			}
			link := int(b)%4 - 1
			before := h.Status()
			regs, vals := h.Snapshot()
			kind, _, err := h.Step(link, frame, core.DiscardSink{})
			if err == nil && kind == KindUpdate {
				h.Received()
			}
			if k, payload, derr := DecodeBody(frame[4:]); derr == nil && k == KindUpdate {
				if env, derr := DecodeUpdate(payload, nil); derr == nil && (int(env.From) != link || env.To != 0) && err == nil {
					t.Fatalf("accepted an update from %d to %d on link %d", env.From, env.To, link)
				}
			}
			if err != nil {
				gotRegs, gotVals := h.Snapshot()
				if h.Status() != before || !reflect.DeepEqual(gotRegs, regs) || !reflect.DeepEqual(gotVals, vals) {
					t.Fatalf("refused %v frame (%v) changed the replica", kind, err)
				}
			}
		}

		re := newHost(nil)
		good, err := re.Replay(bytes.NewReader(logBuf.Bytes()))
		if err != nil || good != int64(logBuf.Len()) {
			t.Fatalf("replay stopped at %d of %d log bytes: %v", good, logBuf.Len(), err)
		}
		if got, want := re.Status(), h.Status(); got != want {
			t.Fatalf("replayed counters %+v, want %+v", got, want)
		}
		gotRegs, gotVals := re.Snapshot()
		wantRegs, wantVals := h.Snapshot()
		if !reflect.DeepEqual(gotRegs, wantRegs) || !reflect.DeepEqual(gotVals, wantVals) {
			t.Fatalf("replayed registers %v=%v, want %v=%v", gotRegs, gotVals, wantRegs, wantVals)
		}
	})
}

// TestHostRefusesUnloggedMutation pins log-before-apply at the host: once
// an append fails, Step applies nothing and says why, for a client write
// and a genuine update alike, and every later mutation is refused too.
func TestHostRefusesUnloggedMutation(t *testing.T) {
	g := sharegraph.Ring(3)
	proto, err := cli.Protocol("edge-indexed", g)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := proto.NewNodes()
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.CollectWrite(nodes[1], "ring0", 7, 0)
	if err != nil || len(out) != 1 {
		t.Fatalf("write at 1: %v %v", err, out)
	}
	upd := AppendUpdate(nil, out[0])
	w := &failingWriter{}
	h := NewHost(g, 0, nodes[0], w)
	for _, tc := range []struct {
		link  int
		frame []byte
	}{
		{ClientID, AppendWrite(nil, "ring0", 5)},
		{1, upd},
		{ClientID, AppendWrite(nil, "ring2", 6)},
	} {
		if _, _, err := h.Step(tc.link, tc.frame, core.DiscardSink{}); !errors.Is(err, errDiskFull) {
			t.Fatalf("step from %d: err = %v, want the log's", tc.link, err)
		}
	}
	if w.calls != 1 {
		t.Errorf("%d appends after the first failure, want none", w.calls-1)
	}
	if s := h.Status(); s != (Status{}) {
		t.Errorf("status %+v after refused mutations, want zero", s)
	}
	regs, vals := h.Snapshot()
	for i, v := range vals {
		if v != 0 {
			t.Errorf("register %s = %d after refused mutations, want untouched", regs[i], v)
		}
	}
}

var errDiskFull = errors.New("disk full")

// failingWriter is a log whose every append fails.
type failingWriter struct{ calls int }

func (w *failingWriter) Write([]byte) (int, error) {
	w.calls++
	return 0, errDiskFull
}
