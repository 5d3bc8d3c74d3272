// Command benchmark is the repo's reference benchmark: five workloads
// against the public functions of each runtime, five bounded end-to-end
// metrics per workload, and a separate traced run that yields the
// per-layer numbers. See README.md for the definitions and spec.json for
// the sizes, bounds and expectations.
//
//	go run . -seed 1                       every workload, untraced
//	go run . -workload wire_ring8 -trace 1 one workload, traced
//	go run . compare A B                   two result files or directories
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero when
// any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// environment is recorded beside the numbers: they mean nothing without it.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Workers    int    `json:"workers"`
	Drivers    int    `json:"drivers"`
	Network    string `json:"network"`
	Started    string `json:"started"`
}

// resultFile is out/result-*.json.
type resultFile struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Int64("seed", 1, "workload seed: fixes register owners and the op stream")
	seconds := fs.Float64("seconds", 0, "run length the op counts are scaled to (default: spec.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 performs the traced run and reports the per-layer metrics")
	outDir := fs.String("out", "out", "directory for result and trace files")
	wrong := fs.Bool("wrong-expectation", false, "corrupt one expected final value; the run must then fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	cfg := runConfig{
		seed: *seed, scale: *seconds / float64(sp.RunSeconds),
		warmups: sp.WarmupPasses, timed: sp.TimedPasses, phases: sp.PacedPhases,
		traced: *trace != 0, workers: defaultWorkers(), outDir: *outDir,
		wrongExpectation: *wrong,
	}
	if cfg.traced {
		cfg.timed = 6 // two each of plain, span-recording and obs-armed
	}
	selected := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []*workloadDef{w}
	}

	file := resultFile{Env: environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), OS: runtime.GOOS + "/" + runtime.GOARCH,
		Workers: cfg.workers, Drivers: 1,
		Network: "wire_ring8 crosses the host loopback, not a link",
		Started: time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Printf("benchmark: seed %d, scale %.3g, nproc %d, GOMAXPROCS %d, workers %d + 1 driver, %s\n",
		cfg.seed, cfg.scale, file.Env.NumCPU, file.Env.GOMAXPROCS, cfg.workers, file.Env.GoVersion)
	for _, w := range selected {
		res, err := runWorkload(w, sp, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
		file.Runs = append(file.Runs, res)
		printRun(os.Stdout, sp, res)
	}

	name := fmt.Sprintf("result-%d", cfg.seed)
	if *workloadName != "" {
		name += "-" + *workloadName
	}
	if cfg.traced {
		name += "-trace"
	}
	if err := writeJSON(filepath.Join(cfg.outDir, name+".json"), file); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// The contract line: one workload's metrics by their own names, or
	// every workload's as <workload>/<metric>.
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, res := range file.Runs {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		ms := res.EndToEnd
		if cfg.traced {
			ms = res.PerLayer
		}
		for k, m := range ms {
			if len(file.Runs) > 1 {
				k = res.Workload + "/" + k
			}
			line.Metrics[k] = m
		}
	}
	line.Correct = line.Failed == 0
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printRun prints one workload's numbers by name, with units.
func printRun(out *os.File, sp *spec, res *runResult) {
	fmt.Fprintf(out, "\n%s (seed %d, %d ops per pass, %d passes, %.1fs in all)\n", res.Workload, res.Seed, res.Passes[0].Ops, len(res.Passes), res.ElapsedS)
	fmt.Fprintf(out, "  machine speed %.1f, %.3f of nominal: time-based metrics below are brought to nominal speed, raw values in brackets\n", res.MachineSpeed, res.SpeedFactor)
	for _, m := range sp.EndToEnd {
		v := res.EndToEnd[m.Name]
		fmt.Fprintf(out, "  %-22s %14.4f %-6s", m.Name, v.Value, v.Unit)
		if raw, ok := res.Raw[m.Name]; ok {
			fmt.Fprintf(out, " [%.4f]", raw.Value)
		}
		if s, ok := res.Spread[m.Name]; ok {
			fmt.Fprintf(out, "  spread: min %.4g q1 %.4g median %.4g q3 %.4g max %.4g", s.Min, s.Q1, s.Median, s.Q3, s.Max)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  %-22s %14.6f %-6s  (%d of %d)\n", "failed_share", float64(res.Failed)/float64(max(1, res.Attempted)), "ratio", res.Failed, res.Attempted)
	var probes, timeouts int64
	for _, p := range res.Paced {
		probes += p.Probes
		timeouts += p.Timeouts
	}
	fmt.Fprintf(out, "  paced: %d phases of %.2fs at %.0f ops/s, least share of the rate achieved %.4f, late p99 %.1fus; %d probes, %d timeouts, visible p95 %.1fus (medians over phases)\n",
		len(res.Paced), res.Paced[0].Seconds, res.Paced[0].Rate,
		quantile(res.pacedColumn(func(p *pacedRecord) float64 { return p.AchievedShare }), 0),
		median(res.pacedColumn(func(p *pacedRecord) float64 { return p.LateP99Us })), probes, timeouts,
		median(res.pacedColumn(func(p *pacedRecord) float64 { return p.VisibleP95Us })))
	for _, f := range res.Flags {
		fmt.Fprintf(out, "  FLAG: %s\n", f)
	}
	for _, rec := range res.Passes {
		if rec.Note != "" {
			fmt.Fprintf(out, "  %s pass: %s\n", rec.Kind, rec.Note)
		}
	}
	for _, p := range res.Paced {
		if p.Note != "" {
			fmt.Fprintf(out, "  paced phase: %s\n", p.Note)
		}
	}
	if res.Verify != nil && res.Verify.Note != "" {
		fmt.Fprintf(out, "  verification pass: %s\n", res.Verify.Note)
	}
	if len(res.PerLayer) > 0 {
		names := make([]string, 0, len(res.PerLayer))
		for k := range res.PerLayer {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(out, "  %-34s %16.4f %s\n", k, res.PerLayer[k].Value, res.PerLayer[k].Unit)
		}
	}
}
