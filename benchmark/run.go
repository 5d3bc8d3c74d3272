package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	scale   float64 // 1 runs spec.json's op counts and paced duration as written
	paced   float64 // seconds of paced load in all; 0 takes spec.json's, scaled
	phases  int     // paced phases those seconds are split over
	warmups int
	timed   int
	traced  bool
	workers int
	outDir  string
	// wrongExpectation corrupts one expected final value, to prove that
	// the checks reach the exit code.
	wrongExpectation bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the five-number spread of a per-pass quantity.
type summary struct {
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Min: quantile(xs, 0), Q1: q1, Median: median(xs), Q3: q3, Max: quantile(xs, 1)}
}

// runResult is everything one workload run produced.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Scale     float64 `json:"scale"`
	Workers   int     `json:"workers"`
	Drivers   int     `json:"drivers"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	ElapsedS  float64 `json:"elapsed_s"` // the whole run, set-up and checks included
	// MachineSpeed is the median of the run's machineSpeed readings and
	// SpeedFactor its ratio to spec.json's calibration_nominal. EndToEnd
	// and Spread hold the time-based metrics at the nominal speed; Raw
	// holds them as the clock gave them.
	MachineSpeed float64            `json:"machine_speed"`
	SpeedFactor  float64            `json:"speed_factor"`
	Raw          map[string]metric  `json:"raw"`
	EndToEnd     map[string]metric  `json:"end_to_end"`
	PerLayer     map[string]metric  `json:"per_layer,omitempty"`
	Spread       map[string]summary `json:"spread"` // over the timed passes, or the paced phases
	Flags        []string           `json:"flags,omitempty"`
	Passes       []passRecord       `json:"passes"`
	Paced        []pacedRecord      `json:"paced"`
	Verify       *passRecord        `json:"verify,omitempty"`
}

// undisturbed is the quantile over the paced phases that the bounded
// latency metric reports: the second best of five phases. On the hosts
// this runs on, whole phases land in a mode where a quarter or more of
// the probes wait milliseconds for a descheduled vCPU or a worker parked
// on the driver's processor; such things only ever add latency, so a low
// quantile over phases is the estimate of what the code itself costs that
// repeats from run to run. The median over phases did not (spread 35%).
const undisturbed = 0.25

// slowModeSpan is how far apart (max/min - 1) the timed passes of one run
// may lie before the summary flags that a slow-mode pass is among them.
const slowModeSpan = 0.15

// runWorkload performs one complete run of one workload: the saturation
// passes, the paced phase, the verification pass, and (traced) the layer
// replays.
func runWorkload(w *workloadDef, sp *spec, cfg runConfig) (*runResult, error) {
	began := time.Now()
	ws := sp.workload(w.name)
	// A multiple of 64 keeps clientserver_mixed's rounds whole and its
	// reads and writes exactly balanced.
	ops := max(64, int(float64(ws.OpsPerPass)*cfg.scale)/64*64)
	l := w.layout(cfg.seed, ops)
	l.wrongExpectation = cfg.wrongExpectation
	res := &runResult{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, Scale: cfg.scale,
		Workers: cfg.workers, Drivers: 1, Spread: map[string]summary{},
	}

	kinds := make([]string, 0, cfg.warmups+cfg.timed)
	for i := 0; i < cfg.warmups; i++ {
		kinds = append(kinds, "warmup")
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer(cfg.timed*(ops/sampleEvery+16) + 64)
		// A traced run interleaves plain, span-recording and obs-armed
		// passes, so that each overhead is a ratio of passes taken side
		// by side in one process; the order runs there and back again so
		// that a drift over the process's lifetime cancels.
		order := []string{"timed", "spans", "armed", "armed", "spans", "timed"}
		for i := 0; i < cfg.timed; i++ {
			kinds = append(kinds, order[i%len(order)])
		}
	} else {
		for i := 0; i < cfg.timed; i++ {
			kinds = append(kinds, "timed")
		}
	}
	instances := 0
	opts := func(kind string) startOpts {
		instances++
		return startOpts{seed: cfg.seed*1000 + int64(instances), workers: cfg.workers, metrics: kind == "armed"}
	}
	for _, kind := range kinds {
		var t *tracer
		if kind == "spans" {
			t = tr
		}
		res.Passes = append(res.Passes, runPass(w, l, ops, kind, opts(kind), t))
	}

	seconds := cfg.paced
	if seconds == 0 {
		seconds = sp.PacedSeconds * cfg.scale
		if cfg.traced {
			seconds /= 2 // the tail percentiles need fewer samples than the bounded ones need steadiness
		}
	}
	for k := 0; k < cfg.phases; k++ {
		res.Paced = append(res.Paced, runPaced(w, l, sp, ws.PacedRate, seconds/float64(cfg.phases), opts("paced"), tr))
	}

	if w.unaudited {
		o := opts("verify")
		o.audit = true
		v := runPass(w, l, max(64, int(float64(ops)*sp.VerifyScale)), "verify", o, nil)
		res.Verify = &v
	}

	res.fold(w, l, ops, sp.CalibrationNominal)
	defer func() { res.ElapsedS = time.Since(began).Seconds() }()
	if cfg.traced {
		layers, err := layerMetrics(w, l, ops, res, tr, cfg)
		if err != nil {
			return nil, err
		}
		res.PerLayer = layers
		if err := tr.write(cfg.outDir, w.name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// passes returns the records of one kind.
func (res *runResult) passes(kind string) []passRecord {
	var out []passRecord
	for _, p := range res.Passes {
		if p.Kind == kind {
			out = append(out, p)
		}
	}
	return out
}

// pacedColumn is column for the paced phases.
func (res *runResult) pacedColumn(f func(*pacedRecord) float64) []float64 {
	out := make([]float64, len(res.Paced))
	for i := range res.Paced {
		out[i] = f(&res.Paced[i])
	}
	return out
}

func column(ps []passRecord, f func(*passRecord) float64) []float64 {
	out := make([]float64, len(ps))
	for i := range ps {
		out[i] = f(&ps[i])
	}
	return out
}

// fold turns the raw records into the end-to-end metrics.
func (res *runResult) fold(w *workloadDef, l *load, ops int, nominalSpeed float64) {
	timed := res.passes("timed")
	opsPerS := column(timed, func(p *passRecord) float64 { return p.OpsPerS })
	// Bytes allocated add up across passes where times do not, and per
	// pass they swing with queue depths (shard_zipf1k: 51 to 232 B/op
	// within one set of runs), so this metric is the mean over every
	// saturation pass, warm-up included, not a median of five.
	alloc := column(res.Passes, func(p *passRecord) float64 { return float64(p.AllocBytes) / float64(p.Ops) })
	// Every instance set up in this process is a set-up sample; the
	// verification pass is left out because its armed oracle is not part
	// of the set-up users pay.
	setup := column(res.Passes, func(p *passRecord) float64 { return p.SetupS })
	setup = append(setup, res.pacedColumn(func(p *pacedRecord) float64 { return p.SetupS })...)
	visible50 := res.pacedColumn(func(p *pacedRecord) float64 { return p.VisibleP50Us })
	res.Spread["visible_p50_us"] = summarize(visible50)
	res.Spread["ops_per_s"] = summarize(opsPerS)
	res.Spread["alloc_bytes_per_op"] = summarize(alloc)
	res.Spread["setup_s"] = summarize(setup)

	msgs := sum(column(timed, func(p *passRecord) float64 { return float64(p.Msgs) }))
	meta := sum(column(timed, func(p *passRecord) float64 { return float64(p.MetaBytes) }))
	if w.metaBytes != nil {
		// The runtime does not count metadata bytes itself.
		m, b, err := w.metaBytes(l, ops)
		if err != nil {
			res.Failed++
			res.Flags = append(res.Flags, "metadata count: "+err.Error())
		}
		msgs, meta = float64(m), float64(b)
	}
	perMsg := 0.0
	if msgs > 0 {
		perMsg = meta / msgs
	}
	res.EndToEnd = map[string]metric{
		"setup_s":            {median(setup), "s"},
		"ops_per_s":          {median(opsPerS), "ops/s"},
		"visible_p50_us":     {quantile(visible50, undisturbed), "us"},
		"meta_bytes_per_msg": {perMsg, "B"},
		"alloc_bytes_per_op": {mean(alloc), "B/op"},
	}

	// Bring the time-based metrics to the nominal machine speed: a faster
	// machine than nominal (factor > 1) has its throughput divided and its
	// times multiplied by the factor.
	speeds := append(column(res.Passes, func(p *passRecord) float64 { return p.Speed }), res.pacedColumn(func(p *pacedRecord) float64 { return p.Speed })...)
	res.MachineSpeed = median(speeds)
	res.SpeedFactor = res.MachineSpeed / nominalSpeed
	res.Raw = map[string]metric{}
	for name, exp := range map[string]float64{"ops_per_s": -1, "setup_s": 1, "visible_p50_us": 1} {
		res.Raw[name] = res.EndToEnd[name]
		f := math.Pow(res.SpeedFactor, exp)
		m, s := res.EndToEnd[name], res.Spread[name]
		res.EndToEnd[name] = metric{m.Value * f, m.Unit}
		res.Spread[name] = summary{s.Min * f, s.Q1 * f, s.Median * f, s.Q3 * f, s.Max * f}
	}

	for _, p := range res.Passes {
		res.Attempted += p.Ops
		res.Failed += p.Failed
	}
	for _, p := range res.Paced {
		res.Attempted += p.Issued + p.Probes
		res.Failed += p.Failed
	}
	if res.Verify != nil {
		res.Attempted += res.Verify.Ops
		res.Failed += res.Verify.Failed
	}
	if s := res.Spread["ops_per_s"]; s.Min > 0 && s.Max/s.Min-1 > slowModeSpan {
		res.Flags = append(res.Flags, fmt.Sprintf("timed passes span %.0f%% (%.0f..%.0f ops/s): a slow-mode pass is among them", 100*(s.Max/s.Min-1), s.Min, s.Max))
	}
	for name, m := range res.EndToEnd {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Failed++
			res.Flags = append(res.Flags, name+" is not finite")
		}
	}
}

// defaultWorkers leaves one core to the driver: driver + workers = cores.
func defaultWorkers() int { return max(1, runtime.NumCPU()-1) }
