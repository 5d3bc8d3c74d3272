// Command prcc-bench prints the paper's claims as one markdown table:
// each row's paper reference, statement, measured value and expected
// value — exact where the paper states a number, an order where it only
// ranks seeded run numbers. It takes no arguments and exits 1 naming
// every row that printed FAIL.
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/causality"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/optimize"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	err := fmt.Errorf("takes no arguments")
	if len(os.Args) == 1 {
		err = run(os.Stdout, claims())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "prcc-bench:", err)
		os.Exit(1)
	}
}

// A claim is one row of the table.
type claim struct {
	id, ref, text string
	// measure returns a value compared with want as text, or a seq that
	// want orders.
	measure func() (any, error)
	want    string
}

// seq is a tuple of run numbers. A want that orders it names one operand
// per value with a relation ('<', '=' or '>') between consecutive
// operands, as in "broken > ring"; any other want is compared as text.
type seq []float64

func (s seq) String() string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = strconv.FormatFloat(math.Round(v*10)/10, 'f', -1, 64)
	}
	return strings.Join(parts, ", ")
}

// check measures c and judges the measurement against c.want.
func (c claim) check() (got string, ok bool, err error) {
	v, err := c.measure()
	if err != nil {
		return "error: " + err.Error(), false, err
	}
	got = fmt.Sprint(v)
	s, isSeq := v.(seq)
	if !isSeq || !strings.ContainsAny(c.want, "<=>") {
		return got, got == c.want, nil
	}
	f := strings.Fields(c.want)
	ok = len(f) == 2*len(s)-1
	for i := 1; ok && i < len(s); i++ {
		d := s[i-1] - s[i]
		ok = map[string]bool{"<": d < 0, "=": d == 0, ">": d > 0}[f[2*i-1]]
	}
	return got, ok, nil
}

// run measures every claim, prints the table to w, and returns an error
// naming each row that failed.
func run(w io.Writer, table []claim) error {
	fmt.Fprintln(w, "| id | ref | claim | measured | expected | result |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	var failed []string
	for _, c := range table {
		got, ok, _ := c.check()
		if !ok {
			failed = append(failed, c.id)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n", c.id, c.ref, c.text, got, c.want, map[bool]string{true: "PASS", false: "FAIL"}[ok])
	}
	if len(failed) > 0 {
		return fmt.Errorf("claims that failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// claims builds the table. Rows that share runs read one memoised set.
func claims() []claim {
	var t []claim
	rows := map[string]int{}
	add := func(exp, ref, text, want string, measure func() (any, error)) {
		t = append(t, claim{fmt.Sprintf("%s.%c", exp, 'a'+rows[exp]), ref, text, measure, want})
		rows[exp]++
	}
	fact := func(exp, ref, text string, f func() bool) {
		add(exp, ref, text, "true", func() (any, error) { return f(), nil })
	}
	e := func(a, b sharegraph.ReplicaID) sharegraph.Edge { return sharegraph.Edge{From: a, To: b} }
	ids := func(r ...sharegraph.ReplicaID) []sharegraph.ReplicaID { return r }

	g3 := sharegraph.Fig3Example()
	fact("E1", "Fig. 3, Def. 3", "edges exactly {01,12,23} (paper {12,23,34})", func() bool {
		return g3.NumUndirectedEdges() == 3 && g3.HasEdge(e(0, 1)) && g3.HasEdge(e(1, 2)) && g3.HasEdge(e(2, 3)) && !g3.HasEdge(e(0, 3))
	})
	fact("E1", "Fig. 3, Def. 3", "X23 = {y} (zero-based Shared(1,2))", func() bool { return g3.Shared(1, 2).Equal(sharegraph.NewRegisterSet("y")) })
	fact("E1", "Fig. 3, Def. 3", "X14 = ∅ (zero-based Shared(0,3))", func() bool { return g3.Shared(0, 3) == nil })

	g5 := sharegraph.Fig5Example()
	ts5 := sync.OnceValue(func() *sharegraph.TSGraph { return sharegraph.BuildTSGraph(g5, 0, sharegraph.LoopOptions{}) })
	fact("E2", "Fig. 5, Def. 4", "(1,2,3,4) is a (1,e43)-loop", func() bool { return g5.IsIEJKLoop(sharegraph.Loop{I: 0, L: ids(1, 2), R: ids(3)}) })
	fact("E2", "Fig. 5, Def. 4", "(1,4,3,2) is NOT a (1,e34)-loop", func() bool { return !g5.IsIEJKLoop(sharegraph.Loop{I: 0, L: ids(3), R: ids(2, 1)}) })
	fact("E2", "Fig. 5, Def. 5", "e43 ∈ G_1, e34 ∉ G_1 (asymmetric tracking)", func() bool { return ts5().Has(e(3, 2)) && !ts5().Has(e(2, 3)) })
	fact("E2", "Fig. 5, Def. 5", "e32 ∈ G_1, e23 ∉ G_1", func() bool { return ts5().Has(e(2, 1)) && !ts5().Has(e(1, 2)) })

	hm1, r1 := sharegraph.HelaryMilani1()
	hm2, r2 := sharegraph.HelaryMilani2()
	hoop := func(r sharegraph.HM1Roles) []sharegraph.ReplicaID { return ids(r.J, r.B1, r.B2, r.I, r.A1, r.A2, r.K) }
	fact("E3", "Fig. 8a, Def. 18", "loop is a minimal x-hoop under Definition 18", func() bool { return hm1.IsMinimalXHoop("x", hoop(r1), sharegraph.Original) })
	fact("E3", "Fig. 8a, Thm 8", "yet e_jk ∉ G_i and e_kj ∉ G_i (Theorem 8 does not require them)", func() bool {
		ts := sharegraph.BuildTSGraph(hm1, r1.I, sharegraph.LoopOptions{})
		return !ts.Has(e(r1.J, r1.K)) && !ts.Has(e(r1.K, r1.J))
	})
	add("E3", "Fig. 8a, Thm 24", "algorithm consistent on this graph without tracking x at i: verdict, false dependencies", "ok 0",
		runs(hm1, workload.SharedOnly(hm1, 150, 1), seeded(7), named("edge-indexed", hm1))(func(rs []*sim.Result) any {
			return fmt.Sprint(verdict(rs[0]), " ", rs[0].FalseDepUpdates)
		}))
	fact("E4", "Fig. 8b, Def. 20", "loop is NOT a minimal x-hoop under modified Definition 20", func() bool { return !hm2.IsMinimalXHoop("x", hoop(r2), sharegraph.Modified) })
	fact("E4", "Fig. 8b, Thm 8", "yet Theorem 8 requires e_kj ∈ G_i", func() bool {
		return sharegraph.BuildTSGraph(hm2, r2.I, sharegraph.LoopOptions{}).Has(e(r2.K, r2.J))
	})

	for _, r := range []struct{ topo, want string }{
		{"fig3", "ok, ok, ok, not live, ok"}, {"fig5", "ok, ok, ok, not live, UNSAFE"},
		{"hm1", "ok, ok, ok, not live, UNSAFE"}, {"ring", "ok, ok, ok, not live, UNSAFE"},
		{"clique", "ok, ok, ok, not live, UNSAFE"}, {"grid", "ok, ok, ok, not live, UNSAFE"},
		{"fullrep", "ok, ok, ok, ok, UNSAFE"},
	} {
		add("E6", "Thm 24; Thm 8", r.topo+", worst of 12 random schedules: edge-indexed, matrix, dummy-broadcast, naive-vector, fifo-only", r.want, func() (any, error) {
			g, err := cli.Topology(r.topo, 5, 1)
			if err != nil {
				return nil, err
			}
			script := workload.SharedOnly(g, 150, 2)
			var v []string
			for _, pn := range []string{"edge-indexed", "matrix", "dummy-broadcast", "naive-vector", "fifo-only"} {
				worst := "ok"
				for seed := int64(0); seed < 12; seed++ {
					w, err := runs(g, script, seeded(seed), named(pn, g))(verdicts)()
					if err != nil {
						return nil, err
					}
					if w == "UNSAFE" || worst == "ok" {
						worst = w.(string)
					}
				}
				v = append(v, worst)
			}
			return strings.Join(v, ", "), nil
		})
	}

	for _, r := range []graphCase{{"line5", sharegraph.Line(5), "2 4 4 4 2"}, {"star5", sharegraph.Star(5), "8 2 2 2 2"}} {
		add("E8", "Sec. 4, Thm 15 (trees)", r.name+": lower-bound exponent (m^e, e bits at m=2) = algorithm counters = 2·deg(i), per replica",
			r.want, func() (any, error) {
				v := make([]string, r.g.NumReplicas())
				for i := range v {
					b := lowerbound.ComputeBound(r.g, sharegraph.ReplicaID(i), 2)
					if v[i] = strconv.Itoa(b.Exponent); !b.Tight() {
						v[i] += fmt.Sprintf("≠%d", b.AlgorithmEntries)
					}
				}
				return strings.Join(v, " "), nil
			})
	}
	for i, n := range []int{3, 4, 5} {
		add("E9", "Sec. 4, Thm 15 (cycles)", fmt.Sprintf("ring %d, replica 0: closed form 2n / lower-bound exponent / algorithm counters", n),
			[]string{"6/6/6", "8/8/8", "10/10/10"}[i], func() (any, error) {
				b := lowerbound.ComputeBound(sharegraph.Ring(n), 0, 2)
				return fmt.Sprintf("%d/%d/%d", lowerbound.CycleClosedForm(n), b.Exponent, b.AlgorithmEntries), nil
			})
	}

	for _, r := range []graphCase{
		{"fullrep R=5", sharegraph.FullReplication(5, 3), "100/25 (0.25)"},
		{"pair-clique R=5", sharegraph.PairClique(5), "100/100 (1.00)"},
		{"ring 6", sharegraph.Ring(6), "72/72 (1.00)"},
		{"random k=2", sharegraph.RandomK(8, 24, 2, 5), "224/224 (1.00)"},
		{"random k=3", sharegraph.RandomK(8, 24, 3, 5), "432/400 (0.93)"},
		{"random k=4", sharegraph.RandomK(8, 24, 4, 5), "448/432 (0.96)"},
		{"random k=3 R=32 exact", sharegraph.RandomK(32, 96, 3, 7), "13888/9184 (0.66)"},
	} {
		add("E11", "Sec. 5", r.name+": timestamp entries / compressed entries (ratio), all replicas", r.want, func() (any, error) {
			reports := optimize.AnalyzeAll(r.g, sharegraph.BuildAllTSGraphs(r.g, sharegraph.LoopOptions{}))
			n, c := optimize.TotalEntries(reports), optimize.TotalCompressed(reports)
			return fmt.Sprintf("%d/%d (%.2f)", n, c, float64(c)/float64(n)), nil
		})
	}

	ring6 := sharegraph.Ring(6)
	e12 := runs(ring6, workload.SharedOnly(ring6, 300, 3), seeded(4), named("edge-indexed", ring6), func() (core.Protocol, error) {
		return optimize.FullEmulationPlan(ring6).Protocol("full-emulation")
	})
	const dummies = "Sec. 5 (dummy registers)"
	add("E12", dummies, "ring 6, edge-indexed / full-emulation: oracle verdict", "ok, ok", e12(verdicts))
	add("E12", dummies, "max timestamp entries per replica", "12, 30", e12(by(maxEntries, 0, 1)))
	add("E12", dummies, "messages", "300, 1500", e12(by(msgs, 0, 1)))
	add("E12", dummies, "metadata-only messages", "0, 1200", e12(by(func(r *sim.Result) float64 { return float64(r.MetaOnlyMessages) }, 0, 1)))
	add("E12", dummies, "false dependencies", "full-emulation > edge-indexed",
		e12(by(func(r *sim.Result) float64 { return float64(r.FalseDepUpdates) }, 1, 0)))

	for i, n := range []int{4, 6, 8, 10} {
		ring := sharegraph.Ring(n)
		e13 := runs(ring, workload.SharedOnly(ring, 200, 9), seeded(2), named("edge-indexed", ring), func() (core.Protocol, error) {
			return optimize.BreakRing(n)
		})
		ref, name := "App. D, Fig. 13", fmt.Sprintf("ring %d", n)
		add("E13", ref, name+", ring / broken ring: oracle verdict", "ok, ok", e13(verdicts))
		add("E13", ref, name+": counters in total, 2n² vs 4n−4", []string{"32, 12", "72, 20", "128, 28", "200, 36"}[i], e13(by(entries, 0, 1)))
		add("E13", ref, name+": counters per replica (max), 2n vs 4", []string{"8, 4", "12, 4", "16, 4", "20, 4"}[i], e13(by(maxEntries, 0, 1)))
		add("E13", ref, name+": messages, relay vs direct", "broken > ring", e13(by(msgs, 1, 0)))
		add("E13", ref, name+": metadata B/msg", "broken < ring", e13(by((*sim.Result).AvgMetaBytes, 1, 0)))
		add("E13", ref, name+": delivery delay (steps)", "broken > ring", e13(by((*sim.Result).AvgDeliveryDelay, 1, 0)))
	}

	for _, r := range []graphCase{
		{"ring R=8", sharegraph.Ring(8), ""}, {"grid R=9", sharegraph.Grid(3, 3), ""},
		{"clique R=8", sharegraph.PairClique(8), ""}, {"random R=8", sharegraph.RandomK(8, 24, 3, 3), ""},
	} {
		// The runs are edge-indexed (0), matrix (1) and dummy-broadcast (2).
		e15 := runs(r.g, workload.SharedOnly(r.g, 300, 6), seeded(8), named("edge-indexed", r.g), named("matrix", r.g), named("dummy-broadcast", r.g))
		add("E15", "Thm 24", r.name+", edge-indexed / matrix / dummy-broadcast: oracle verdict", "ok, ok, ok", e15(verdicts))
		add("E15", "Sec. 1, Thm 8", r.name+": timestamp entries in total", "dummy-broadcast < edge-indexed < matrix", e15(by(entries, 2, 0, 1)))
		add("E15", "Sec. 1", r.name+": messages", "edge-indexed = matrix < dummy-broadcast", e15(by(msgs, 0, 1, 2)))
		add("E15", "Sec. 1", r.name+": metadata B/msg", "dummy-broadcast < edge-indexed < matrix", e15(by((*sim.Result).AvgMetaBytes, 2, 0, 1)))
	}

	for _, r := range []struct {
		n, l       int
		save, safe string
	}{{5, 3, "20/50", unsafe}, {5, 4, "50/50", "yes"}, {6, 3, "24/72", unsafe}, {6, 5, "72/72", "yes"}} {
		g, ring := sharegraph.Ring(r.n), fmt.Sprintf("ring %d", r.n)
		add("E16", "App. D", fmt.Sprintf("%s, l=%d: entries truncated/exact", ring, r.l), r.save, func() (any, error) {
			tr, exact := optimize.TruncationSavings(g, r.l)
			return fmt.Sprintf("%d/%d", tr, exact), nil
		})
		add("E16", "App. D, Thm 8", fmt.Sprintf("%s, l=%d: consistent under the staged chain", ring, r.l), r.safe, stagedChain(g, func() (core.Protocol, error) {
			p, _, err := optimize.TruncatedProtocol(g, r.l, "edge-indexed-truncated")
			return p, err
		}))
		if r.l == r.n-1 {
			add("E16", "App. D, Thm 24", ring+", exact: consistent under the staged chain", "yes", stagedChain(g, named("edge-indexed", g)))
		}
	}
	return t
}

// graphCase is one graph of a claim family with its expected value.
type graphCase struct {
	name string
	g    *sharegraph.Graph
	want string
}

// proto builds one protocol under test.
type proto func() (core.Protocol, error)

func named(name string, g *sharegraph.Graph) proto {
	return func() (core.Protocol, error) { return cli.Protocol(name, g) }
}

func seeded(seed int64) func() transport.Scheduler {
	return func() transport.Scheduler { return transport.NewRandom(seed) }
}

// runs memoises one sim.Run of script on g per protocol, each under a
// fresh schedule from sched, with false-dependency tracking on. What it
// returns turns a measurement of those runs into a row's measure.
func runs(g *sharegraph.Graph, script workload.Script, sched func() transport.Scheduler, protos ...proto) func(func([]*sim.Result) any) func() (any, error) {
	memo := sync.OnceValues(func() ([]*sim.Result, error) {
		var rs []*sim.Result
		for _, build := range protos {
			p, err := build()
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(sim.Config{Graph: g, Protocol: p, Script: script, Sched: sched(), TrackFalseDeps: true})
			if err != nil {
				return nil, err
			}
			rs = append(rs, res)
		}
		return rs, nil
	})
	return func(f func([]*sim.Result) any) func() (any, error) {
		return func() (any, error) {
			rs, err := memo()
			if err != nil {
				return nil, err
			}
			return f(rs), nil
		}
	}
}

// by measures f on the runs taken in the given order, as a seq.
func by(f func(*sim.Result) float64, order ...int) func([]*sim.Result) any {
	return func(rs []*sim.Result) any {
		s := make(seq, len(order))
		for i, o := range order {
			s[i] = f(rs[o])
		}
		return s
	}
}

func msgs(r *sim.Result) float64    { return float64(r.MessagesSent) }
func entries(r *sim.Result) float64 { return float64(r.TotalMetadataEntries()) }

func maxEntries(r *sim.Result) float64 { return float64(slices.Max(r.MetadataEntriesPerReplica)) }

// verdict classifies one audited run.
func verdict(r *sim.Result) string {
	switch {
	case slices.ContainsFunc(r.Violations, func(v causality.Violation) bool { return v.Kind == causality.SafetyViolation }):
		return "UNSAFE"
	case !r.Ok():
		return "not live"
	}
	return "ok"
}

func verdicts(rs []*sim.Result) any {
	v := make([]string, len(rs))
	for i, r := range rs {
		v[i] = verdict(r)
	}
	return strings.Join(v, ", ")
}

const unsafe = "NO (staged chain violates safety)"

// stagedChain runs Theorem 8's chain around a ring through sim.Run: u0,
// written at replica 1 for replica 0, is held in flight while u1 … u(n−1)
// travel 1→2→…→0, each written after its predecessor is applied. Only a
// counter for the ring loop makes replica 0 wait for u0.
func stagedChain(g *sharegraph.Graph, p proto) func() (any, error) {
	n := g.NumReplicas()
	script := workload.Script{{Replica: 1, Reg: "ring0"}}
	picks := []int{0}
	for k := 1; k < n; k++ {
		script = append(script, workload.Op{Replica: sharegraph.ReplicaID(k), Reg: sharegraph.Register(fmt.Sprintf("ring%d", k))})
		// Issue uk at replica k, the lowest with ops left; then deliver
		// it, which sits behind the n−1−k writers left and the held u0.
		picks = append(picks, 0, n-k)
	}
	scripted := func() transport.Scheduler { return transport.NewScripted(picks...) }
	return runs(g, script, scripted, p)(func(rs []*sim.Result) any {
		return map[string]string{"ok": "yes", "UNSAFE": unsafe}[verdict(rs[0])]
	})
}
