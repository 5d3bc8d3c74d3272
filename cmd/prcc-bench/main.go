// Command prcc-bench prints the repository's experiment tables, one
// section per experiment (structural checks for the paper's worked
// figures, consistency sweeps, lower-bound tightness, compression, and the
// Appendix D trade-offs).
//
// Usage:
//
//	prcc-bench              # run every experiment
//	prcc-bench -only E13    # run one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prcc-bench:", err)
		os.Exit(1)
	}
}

type experiment struct {
	id    string
	title string
	fn    func() error
}

func run(args []string) error {
	fs := flag.NewFlagSet("prcc-bench", flag.ContinueOnError)
	only := fs.String("only", "", "run a single experiment by id (e.g. E13)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	experiments := []experiment{
		{"E1", "Figure 3 share graph construction", e1},
		{"E2", "Figure 5 loop classification and timestamp-graph asymmetry", e2},
		{"E3", "Hélary–Milani counterexample 1 (Definition 18 too strong)", e3},
		{"E4", "Hélary–Milani counterexample 2 (Definition 20 too weak)", e4},
		{"E6", "Consistency sweep: protocol × topology under adversarial schedules", e6},
		{"E8", "Lower-bound tightness on trees (2·N_i·log m bits)", e8},
		{"E9", "Lower-bound tightness on cycles (2n·log m bits)", e9},
		{"E11", "Timestamp compression across replication factors", e11},
		{"E12", "Dummy registers: metadata vs messages vs false dependencies", e12},
		{"E13", "Ring breaking (Figure 13): counters vs relay cost", e13},
		{"E15", "Metadata comparison across protocols", e15},
		{"E16", "l-hop truncation: savings and safety loss", e16},
	}
	failed = nil
	for _, e := range experiments {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		fmt.Printf("## %s — %s\n\n", e.id, e.title)
		if err := e.fn(); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Println()
	}
	if len(failed) > 0 {
		return fmt.Errorf("rows that printed FAIL: %s", strings.Join(failed, "; "))
	}
	return nil
}

// failed names the rows of the current run that printed FAIL.
var failed []string

func check(name string, ok bool) {
	status := "PASS"
	if !ok {
		status = "FAIL"
		failed = append(failed, name)
	}
	fmt.Printf("| %s | %s |\n", name, status)
}

func e1() error {
	g := sharegraph.Fig3Example()
	fmt.Println("| check | result |")
	fmt.Println("|---|---|")
	check("edges exactly {01,12,23} (paper {12,23,34})", g.NumUndirectedEdges() == 3 &&
		g.HasEdge(sharegraph.Edge{From: 0, To: 1}) && g.HasEdge(sharegraph.Edge{From: 1, To: 2}) &&
		g.HasEdge(sharegraph.Edge{From: 2, To: 3}) && !g.HasEdge(sharegraph.Edge{From: 0, To: 3}))
	check("X23 = {y} (zero-based Shared(1,2))", g.Shared(1, 2).Equal(sharegraph.NewRegisterSet("y")))
	check("X14 = ∅ (zero-based Shared(0,3))", g.Shared(0, 3) == nil)
	return nil
}

func e2() error {
	g := sharegraph.Fig5Example()
	ts := sharegraph.BuildTSGraph(g, 0, sharegraph.LoopOptions{})
	fmt.Println("| check | result |")
	fmt.Println("|---|---|")
	check("(1,2,3,4) is a (1,e43)-loop", g.IsIEJKLoop(sharegraph.Loop{I: 0, L: []sharegraph.ReplicaID{1, 2}, R: []sharegraph.ReplicaID{3}}))
	check("(1,4,3,2) is NOT a (1,e34)-loop", !g.IsIEJKLoop(sharegraph.Loop{I: 0, L: []sharegraph.ReplicaID{3}, R: []sharegraph.ReplicaID{2, 1}}))
	check("e43 ∈ G_1, e34 ∉ G_1 (asymmetric tracking)", ts.Has(sharegraph.Edge{From: 3, To: 2}) && !ts.Has(sharegraph.Edge{From: 2, To: 3}))
	check("e32 ∈ G_1, e23 ∉ G_1", ts.Has(sharegraph.Edge{From: 2, To: 1}) && !ts.Has(sharegraph.Edge{From: 1, To: 2}))
	return nil
}

func e3() error {
	g, roles := sharegraph.HelaryMilani1()
	hoop := []sharegraph.ReplicaID{roles.J, roles.B1, roles.B2, roles.I, roles.A1, roles.A2, roles.K}
	ts := sharegraph.BuildTSGraph(g, roles.I, sharegraph.LoopOptions{})
	fmt.Println("| check | result |")
	fmt.Println("|---|---|")
	check("loop is a minimal x-hoop under Definition 18", g.IsMinimalXHoop("x", hoop, sharegraph.Original))
	check("yet e_jk ∉ G_i and e_kj ∉ G_i (Theorem 8 does not require them)",
		!ts.Has(sharegraph.Edge{From: roles.J, To: roles.K}) && !ts.Has(sharegraph.Edge{From: roles.K, To: roles.J}))
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.Config{Graph: g, Protocol: p,
		Script: workload.SharedOnly(g, 150, 1), Sched: transport.NewRandom(7), TrackFalseDeps: true})
	if err != nil {
		return err
	}
	check("algorithm consistent on this graph without tracking x at i", res.Ok() && res.FalseDepUpdates == 0)
	return nil
}

func e4() error {
	g, roles := sharegraph.HelaryMilani2()
	hoop := []sharegraph.ReplicaID{roles.J, roles.B1, roles.B2, roles.I, roles.A1, roles.A2, roles.K}
	ts := sharegraph.BuildTSGraph(g, roles.I, sharegraph.LoopOptions{})
	fmt.Println("| check | result |")
	fmt.Println("|---|---|")
	check("loop is NOT a minimal x-hoop under modified Definition 20", !g.IsMinimalXHoop("x", hoop, sharegraph.Modified))
	check("yet Theorem 8 requires e_kj ∈ G_i", ts.Has(sharegraph.Edge{From: roles.K, To: roles.J}))
	return nil
}

func e6() error {
	topologies := []string{"fig3", "fig5", "hm1", "ring", "clique", "grid", "fullrep"}
	fmt.Println("| topology | edge-indexed | matrix | dummy-broadcast | naive-vector | fifo-only |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, name := range topologies {
		g, err := cli.Topology(name, 5, 1)
		if err != nil {
			return err
		}
		row := []string{name}
		for _, pn := range []string{"edge-indexed", "matrix", "dummy-broadcast", "naive-vector", "fifo-only"} {
			verdict := verdictSweep(g, pn)
			row = append(row, verdict)
		}
		fmt.Printf("| %s |\n", strings.Join(row, " | "))
	}
	return nil
}

// verdictSweep classifies a protocol's behaviour across 12 random seeds.
func verdictSweep(g *sharegraph.Graph, protoName string) string {
	script := workload.SharedOnly(g, 150, 2)
	safety, liveness := false, false
	for seed := int64(0); seed < 12; seed++ {
		p, err := cli.Protocol(protoName, g)
		if err != nil {
			return "error"
		}
		res, err := sim.Run(sim.Config{Graph: g, Protocol: p, Script: script, Sched: transport.NewRandom(seed)})
		if err != nil {
			return "error"
		}
		for _, v := range res.Violations {
			switch v.Kind {
			case causality.SafetyViolation:
				safety = true
			case causality.LivenessViolation:
				liveness = true
			}
		}
	}
	switch {
	case safety:
		return "UNSAFE"
	case liveness:
		return "not live"
	default:
		return "ok"
	}
}

func e8() error {
	fmt.Println("| graph | replica | exponent (lower bound) | algorithm counters | tight |")
	fmt.Println("|---|---|---|---|---|")
	rows := []struct {
		name string
		g    *sharegraph.Graph
	}{{"line5", sharegraph.Line(5)}, {"star5", sharegraph.Star(5)}}
	for _, row := range rows {
		for i := 0; i < row.g.NumReplicas(); i++ {
			b := lowerbound.ComputeBound(row.g, sharegraph.ReplicaID(i), 2)
			fmt.Printf("| %s | %d | m^%d (%.0f bits at m=2) | %d | %v |\n",
				row.name, i, b.Exponent, b.Bits(), b.AlgorithmEntries, b.Tight())
		}
	}
	return nil
}

func e9() error {
	fmt.Println("| n | closed form 2n | measured exponent | algorithm counters | tight |")
	fmt.Println("|---|---|---|---|---|")
	for _, n := range []int{3, 4, 5} {
		g := sharegraph.Ring(n)
		b := lowerbound.ComputeBound(g, 0, 2)
		fmt.Printf("| %d | %d | %d | %d | %v |\n",
			n, lowerbound.CycleClosedForm(n), b.Exponent, b.AlgorithmEntries, b.Tight())
	}
	return nil
}

func e11() error {
	fmt.Println("| graph | entries | compressed | ratio |")
	fmt.Println("|---|---|---|---|")
	rows := []struct {
		name string
		g    *sharegraph.Graph
	}{
		{"fullrep R=5", sharegraph.FullReplication(5, 3)},
		{"pair-clique R=5", sharegraph.PairClique(5)},
		{"ring 6", sharegraph.Ring(6)},
		{"random k=2", sharegraph.RandomK(8, 24, 2, 5)},
		{"random k=3", sharegraph.RandomK(8, 24, 3, 5)},
		{"random k=4", sharegraph.RandomK(8, 24, 4, 5)},
		// Dense 32-replica row, untruncated: buildable in milliseconds
		// since the exact loop engine replaced the enumerating DFS.
		{"random k=3 R=32 exact", sharegraph.RandomK(32, 96, 3, 7)},
	}
	for _, row := range rows {
		reports := optimize.AnalyzeAll(row.g, sharegraph.BuildAllTSGraphs(row.g, sharegraph.LoopOptions{}))
		e, c := optimize.TotalEntries(reports), optimize.TotalCompressed(reports)
		fmt.Printf("| %s | %d | %d | %.2f |\n", row.name, e, c, float64(c)/float64(e))
	}
	return nil
}

func e12() error {
	g := sharegraph.Ring(6)
	script := workload.SharedOnly(g, 300, 3)
	fmt.Println("| variant | max entries/replica | messages | meta-only | false deps |")
	fmt.Println("|---|---|---|---|---|")
	base, err := core.NewEdgeIndexed(g)
	if err != nil {
		return err
	}
	full, err := optimize.FullEmulationPlan(g).Protocol("full-emulation")
	if err != nil {
		return err
	}
	for _, p := range []core.Protocol{base, full} {
		res, err := sim.Run(sim.Config{Graph: g, Protocol: p, Script: script,
			Sched: transport.NewRandom(4), TrackFalseDeps: true})
		if err != nil {
			return err
		}
		if !res.Ok() {
			return fmt.Errorf("%s: violations %v", p.Name(), res.Violations)
		}
		maxE := 0
		for _, e := range res.MetadataEntriesPerReplica {
			if e > maxE {
				maxE = e
			}
		}
		fmt.Printf("| %s | %d | %d | %d | %d |\n",
			p.Name(), maxE, res.MessagesSent, res.MetaOnlyMessages, res.FalseDepUpdates)
	}
	return nil
}

func e13() error {
	fmt.Println("| n | ring counters/replica | broken counters (max) | ring msgs | broken msgs | ring B/msg | broken B/msg | ring delay | broken delay |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, n := range []int{4, 6, 8, 10} {
		ring := sharegraph.Ring(n)
		ringProto, err := core.NewEdgeIndexed(ring)
		if err != nil {
			return err
		}
		broken, err := optimize.BreakRing(n)
		if err != nil {
			return err
		}
		script := workload.SharedOnly(ring, 200, 9)
		var msgs [2]int
		var avg, delay [2]float64
		var brokenMax int
		for pi, p := range []core.Protocol{ringProto, broken} {
			res, err := sim.Run(sim.Config{Graph: ring, Protocol: p, Script: script, Sched: transport.NewRandom(2)})
			if err != nil {
				return err
			}
			if !res.Ok() {
				return fmt.Errorf("n=%d %s: %v", n, p.Name(), res.Violations)
			}
			msgs[pi] = res.MessagesSent
			avg[pi] = res.AvgMetaBytes()
			delay[pi] = res.AvgDeliveryDelay()
			if pi == 1 {
				for _, e := range res.MetadataEntriesPerReplica {
					if e > brokenMax {
						brokenMax = e
					}
				}
			}
		}
		fmt.Printf("| %d | %d | %d | %d | %d | %.1f | %.1f | %.1f | %.1f |\n",
			n, 2*n, brokenMax, msgs[0], msgs[1], avg[0], avg[1], delay[0], delay[1])
	}
	return nil
}

func e15() error {
	fmt.Println("| topology | protocol | total entries | msgs | meta B/msg | verdict |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, tn := range []string{"ring", "grid", "clique", "random"} {
		g, err := cli.Topology(tn, 8, 3)
		if err != nil {
			return err
		}
		script := workload.SharedOnly(g, 300, 6)
		for _, pn := range []string{"edge-indexed", "matrix", "dummy-broadcast"} {
			p, err := cli.Protocol(pn, g)
			if err != nil {
				return err
			}
			res, err := sim.Run(sim.Config{Graph: g, Protocol: p, Script: script, Sched: transport.NewRandom(8)})
			if err != nil {
				return err
			}
			verdict := "ok"
			if !res.Ok() {
				verdict = "FAIL"
				failed = append(failed, fmt.Sprintf("E15 %s R=%d %s", tn, g.NumReplicas(), pn))
			}
			fmt.Printf("| %s R=%d | %s | %d | %d | %.1f | %s |\n",
				tn, g.NumReplicas(), pn, res.TotalMetadataEntries(), res.MessagesSent, res.AvgMetaBytes(), verdict)
		}
	}
	return nil
}

func e16() error {
	fmt.Println("| graph | hop bound l | entries (truncated/exact) | consistent under adversary |")
	fmt.Println("|---|---|---|---|")
	for _, n := range []int{5, 6} {
		g := sharegraph.Ring(n)
		for _, l := range []int{3, n - 1} {
			tr, exact := optimize.TruncationSavings(g, l)
			verdict := "yes"
			if tr < exact {
				verdict = "NO (loop counters dropped; staged chain violates safety)"
			}
			fmt.Printf("| ring %d | %d | %d/%d | %s |\n", n, l, tr, exact, verdict)
		}
	}
	return nil
}
