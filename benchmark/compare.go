package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compare reads two sets of result files — each a file or a directory of
// out/result-*.json — and prints one row per (workload, end-to-end metric)
// with both medians and quartiles, the relative difference, and a verdict:
//
//	ok          B's median is not worse than A's by more than the bound
//	regressed   it is
//	unresolved  the spread of either set (q3-q1 over the median) is wider
//	            than the bound, so the sets cannot tell
//
// A set's samples are one value per run. A set of a single run falls back
// on that run's per-pass values where the metric has them. The exit code
// is 1 if any pair regressed.

type sampleKey struct{ workload, metric string }

// loadSet gathers every untraced run under path.
func loadSet(path string) (map[sampleKey][]float64, error) {
	var files []string
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, _ = filepath.Glob(filepath.Join(path, "result-*.json"))
		sort.Strings(files)
	} else {
		files = []string{path}
	}
	var runs []*runResult
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rf.Runs {
			if !r.Traced {
				runs = append(runs, r)
			}
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced runs found", path)
	}
	perWorkload := map[string]int{}
	for _, r := range runs {
		perWorkload[r.Workload]++
	}
	set := map[sampleKey][]float64{}
	for _, r := range runs {
		for name, m := range r.EndToEnd {
			k := sampleKey{r.Workload, name}
			if perWorkload[r.Workload] == 1 {
				if vals := perPass(r, name); len(vals) > 1 {
					set[k] = vals
					continue
				}
			}
			set[k] = append(set[k], m.Value)
		}
	}
	return set, nil
}

// perPass returns a run's per-pass samples of a metric, where it has any.
func perPass(r *runResult, name string) []float64 {
	timed := r.passes("timed")
	f := r.SpeedFactor // as fold applies it
	scale := func(xs []float64) []float64 {
		for i := range xs {
			xs[i] *= f
		}
		return xs
	}
	switch name {
	case "ops_per_s":
		return column(timed, func(p *passRecord) float64 { return p.OpsPerS / f })
	case "alloc_bytes_per_op":
		return column(r.Passes, func(p *passRecord) float64 { return float64(p.AllocBytes) / float64(p.Ops) })
	case "setup_s":
		return scale(append(column(r.Passes, func(p *passRecord) float64 { return p.SetupS }), r.pacedColumn(func(p *pacedRecord) float64 { return p.SetupS })...))
	case "visible_p50_us":
		return scale(r.pacedColumn(func(p *pacedRecord) float64 { return p.VisibleP50Us }))
	}
	return nil
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A B   (each a result file or a directory of them)")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, err := loadSet(args[0])
	if err == nil {
		var b map[sampleKey][]float64
		if b, err = loadSet(args[1]); err == nil {
			if compareSets(os.Stdout, sp, a, b) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

// compareSets prints the table and reports whether anything regressed.
func compareSets(out *os.File, sp *spec, a, b map[sampleKey][]float64) (regressed bool) {
	fmt.Fprintf(out, "%-20s %-20s %3s %12s %12s %12s %3s %12s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "nA", "A.q1", "A.median", "A.q3", "nB", "B.q1", "B.median", "B.q3", "diff", "spread", "bound", "verdict")
	for _, ws := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			k := sampleKey{ws.Name, m.Name}
			xa, xb := a[k], b[k]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			qa1, qa3 := quartiles(xa)
			qb1, qb3 := quartiles(xb)
			diff := 0.0
			if ma != 0 {
				diff = (mb - ma) / ma
			}
			worse := diff
			if m.Better == "higher" {
				worse = -diff
			}
			spread := max(spreadShare(xa), spreadShare(xb))
			verdict := "ok"
			switch {
			case m.Name != "setup_s" && spread > m.Bound:
				// setup_s is judged on medians alone, as the contract does.
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(out, "%-20s %-20s %3d %12.5g %12.5g %12.5g %3d %12.5g %12.5g %12.5g %+7.2f%% %6.2f%% %6.2f%%  %s\n",
				ws.Name, m.Name, len(xa), qa1, ma, qa3, len(xb), qb1, mb, qb3, 100*diff, 100*spread, 100*m.Bound, verdict)
		}
	}
	if regressed {
		fmt.Fprintln(out, strings.ToUpper("regressed: at least one pair is worse than its bound allows"))
	}
	return regressed
}
