package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// spec.json is the benchmark's definition in machine-readable form: pass
// counts, per-workload op counts and paced rates, every metric with its
// unit, direction and bound, and for each per-layer metric which
// end-to-end metric it is expected to move on which workload. The program
// sizes its runs from it, and the smoke test holds the repo's
// BENCHMARK.json to it.
//
//go:embed spec.json
var specJSON []byte

type spec struct {
	// RunSeconds is the -seconds value at which the op counts below apply
	// unscaled; other values scale op counts and the paced phase
	// proportionally.
	RunSeconds     int     `json:"run_seconds"`
	WarmupPasses   int     `json:"warmup_passes"`
	TimedPasses    int     `json:"timed_passes"`
	PacedSeconds   float64 `json:"paced_seconds"` // in all, split evenly over the phases
	PacedPhases    int     `json:"paced_phases"`  // each on a fresh instance
	ProbeHz        int     `json:"probe_hz"`
	ProbeTimeoutMs int     `json:"probe_timeout_ms"`
	VerifyScale    float64 `json:"verify_scale"`
	// CalibrationNominal is the machineSpeed reading the time-based
	// end-to-end metrics are reported at; see calibrate.go.
	CalibrationNominal float64        `json:"calibration_nominal"`
	Workloads          []workloadSpec `json:"workloads"`
	EndToEnd           []metricSpec   `json:"end_to_end"`
	PerLayer           []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name       string   `json:"name"`
	OpsPerPass int      `json:"ops_per_pass"`
	PacedRate  float64  `json:"paced_rate_per_s"`
	Runtime    string   `json:"runtime"`
	Why        string   `json:"why"`
	Bypasses   []string `json:"bypasses"`
}

type metricSpec struct {
	Name       string   `json:"name"`
	Unit       string   `json:"unit"`
	Better     string   `json:"better"`
	Bound      float64  `json:"bound,omitempty"`
	Layer      string   `json:"layer,omitempty"`
	Definition string   `json:"definition,omitempty"`
	Moves      []string `json:"moves,omitempty"`  // end-to-end metrics this one should move
	On         []string `json:"on,omitempty"`     // workloads where it should
	NotOn      []string `json:"not_on,omitempty"` // workloads where it should not
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	for _, w := range s.Workloads {
		if findWorkload(w.Name) == nil {
			return nil, fmt.Errorf("spec.json names workload %q, which has no implementation", w.Name)
		}
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("spec.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	return &s, nil
}

func (s *spec) workload(name string) *workloadSpec {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i]
		}
	}
	return nil
}
