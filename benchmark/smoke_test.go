package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// smokeConfig is every workload at about 1/200 of its real size: no
// warm-up, one pass of each traced kind, a paced phase of 0.3 s.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, scale: 1.0 / 200, paced: 0.3, warmups: 0, timed: 3, phases: 1, traced: true, workers: defaultWorkers(), outDir: t.TempDir()}
}

// benchmarkJSON is the repo's BENCHMARK.json, which sits one level up.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSpec holds the contract file to spec.json, which
// is what the program runs from.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || len(b.Command) != 2 || b.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %v paths %v: want bash benchmark/run.sh in benchmark", b.Command, b.Paths)
	}
	if b.RunSeconds != sp.RunSeconds {
		t.Errorf("run_seconds: BENCHMARK.json %d, spec.json %d", b.RunSeconds, sp.RunSeconds)
	}
	if len(b.Workloads) != len(sp.Workloads) {
		t.Fatalf("workloads: BENCHMARK.json %d, spec.json %d", len(b.Workloads), len(sp.Workloads))
	}
	for i, w := range sp.Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q, spec.json %q", i, b.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.json %d", kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec.json %s %s %s %v", kind, i, g, w.Name, w.Unit, w.Better, w.Bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, sp.EndToEnd)
	same("per_layer", b.PerLayer, sp.PerLayer)
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs every workload traced at smoke scale and requires a clean
// run that emits exactly the metrics spec.json names, finite, and a trace
// file whose spans all have a parent that exists.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			res, err := runWorkload(w, sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if raceDetector {
				// The detector slows everything several times over, so the
				// paced rates cannot be held; that one failure is expected.
				for _, p := range res.Paced {
					if p.AchievedShare < minAchievedShare {
						res.Failed--
					}
				}
			}
			if res.Failed != 0 || res.Attempted == 0 {
				for _, p := range res.Passes {
					t.Logf("%s pass: failed %d %s", p.Kind, p.Failed, p.Note)
				}
				for _, p := range res.Paced {
					t.Logf("paced: failed %d %s", p.Failed, p.Note)
				}
				t.Fatalf("failed %d of %d attempted (flags %v)", res.Failed, res.Attempted, res.Flags)
			}
			check := func(kind string, specs []metricSpec, got map[string]metric, positive bool) {
				if len(got) != len(specs) {
					t.Errorf("%s: %d metrics emitted, spec.json names %d", kind, len(got), len(specs))
				}
				for _, m := range specs {
					v, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("%s metric %s not emitted", kind, m.Name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", m.Name, v.Value)
					case positive && v.Value <= 0:
						t.Errorf("%s = %v, end-to-end metrics are never 0", m.Name, v.Value)
					case v.Unit != m.Unit:
						t.Errorf("%s: unit %q, spec.json says %q", m.Name, v.Unit, m.Unit)
					}
				}
			}
			check("end-to-end", sp.EndToEnd, res.EndToEnd, true)
			check("per-layer", sp.PerLayer, res.PerLayer, false)

			data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("trace file does not parse: %v", err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("trace file holds no spans")
			}
			for i, s := range tf.Spans {
				if s.Parent < -1 || int(s.Parent) >= i {
					t.Fatalf("span %d (%s): parent %d does not precede it", i, s.Name, s.Parent)
				}
				if s.EndNs < s.StartNs {
					t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
				}
			}
		})
	}
}

// TestWrongExpectationFails is the negative test: the same clean run, told
// to expect one wrong final value, must count failures.
func TestWrongExpectationFails(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"shard_zipf1k", "clientserver_mixed", "audit_ring64"} {
		cfg := smokeConfig(t)
		cfg.traced, cfg.timed, cfg.wrongExpectation = false, 1, true
		res, err := runWorkload(findWorkload(name), sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed == 0 {
			t.Errorf("%s: a wrong expected final value went unnoticed", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles %v %v median %v", q1, q3, median(xs))
	}
	if got := spreadShare(xs); got != 1 {
		t.Fatalf("spread %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	k := sampleKey{"wire_ring8", "ops_per_s"}
	base := map[sampleKey][]float64{k: {100, 101, 99, 100, 100}}
	bound := sp.EndToEnd[1].Bound
	if sp.EndToEnd[1].Name != "ops_per_s" {
		t.Fatal("spec.json order changed: ops_per_s expected second")
	}
	slower := map[sampleKey][]float64{k: {100 * (1 - 1.5*bound), 100 * (1 - 1.5*bound), 100 * (1 - 1.5*bound)}}
	noisy := map[sampleKey][]float64{k: {50, 100, 150, 200, 250}}
	out, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if compareSets(out, sp, base, base) {
		t.Error("a set regressed against itself")
	}
	if !compareSets(out, sp, base, slower) {
		t.Error("a drop of 1.5 bounds was not a regression")
	}
	if compareSets(out, sp, base, noisy) {
		t.Error("a set wider than the bound must be unresolved, not regressed")
	}
	if !reflect.DeepEqual(base[k], []float64{100, 101, 99, 100, 100}) {
		t.Error("compare reordered its input")
	}
}
