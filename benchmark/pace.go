package main

import (
	"runtime"
	"sync"
	"time"
)

// pacedRecord is the raw outcome of one paced phase.
type pacedRecord struct {
	Speed         float64 `json:"machine_speed"` // machineSpeed just before the phase
	SetupS        float64 `json:"setup_s"`
	Rate          float64 `json:"rate_per_s"`
	Seconds       float64 `json:"seconds"`
	Issued        int64   `json:"issued"`
	AchievedShare float64 `json:"achieved_rate_share"`
	LateP50Us     float64 `json:"late_p50_us"`
	LateP99Us     float64 `json:"late_p99_us"`
	LateMaxUs     float64 `json:"late_max_us"`
	Probes        int64   `json:"probes"`
	Timeouts      int64   `json:"probe_timeouts"`
	VisibleP50Us  float64 `json:"visible_p50_us"`
	VisibleP75Us  float64 `json:"visible_p75_us"`
	VisibleP95Us  float64 `json:"visible_p95_us"`
	VisibleP99Us  float64 `json:"visible_p99_us"`
	VisibleMaxUs  float64 `json:"visible_max_us"`
	Failed        int64   `json:"failed"`
	Note          string  `json:"note,omitempty"`
}

// minAchievedShare is the share of the target rate the generator must
// reach; below it the latency samples were taken under a lighter load
// than stated and the phase counts as failed.
const minAchievedShare = 0.98

// runPaced measures visibility latency on one fresh instance. The
// generator is open-loop: op i is due at t0 + i/rate and is issued then or
// as soon after as the previous call returns, never earlier; how late each
// op ran is recorded. The prober writes unique values to the probe
// registers on its own schedule and polls the public read until every
// other holder returns them.
//
// On the in-process runtimes generator and prober share this goroutine,
// one prober step between ops: a third spinning goroutine beside the
// generator and the delivery worker oversubscribes a two-core box, and the
// resulting scheduler stalls of several milliseconds land right on the
// 95th percentile. Where the public read is a network round trip
// (w.proberGoroutine) the prober runs in a goroutine of its own, which
// spends its time blocked on the socket rather than spinning.
func runPaced(w *workloadDef, l *load, sp *spec, rate, seconds float64, o startOpts, tr *tracer) pacedRecord {
	rec := pacedRecord{Rate: rate, Seconds: seconds, Speed: machineSpeed()}
	n := int(rate * seconds)
	root := tr.begin(w.name+".paced", -1, -1)
	defer tr.end(root)
	t := time.Now()
	inst, err := w.start(l, o)
	rec.SetupS = time.Since(t).Seconds()
	if err != nil {
		rec.Failed, rec.Note = int64(n), "setup: "+err.Error()
		return rec
	}
	defer inst.close()

	t0 := time.Now()
	pr := newProber(inst, l.probes, sp, t0, seconds)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if w.proberGoroutine {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stopping := false; !stopping || pr.active > 0; runtime.Gosched() {
				select {
				case <-stop:
					stopping = true
				default:
				}
				pr.step(!stopping)
			}
		}()
	}

	rd, _ := inst.(loadReader)
	late := make([]float64, n)
	for i := 0; i < n; {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		now := time.Since(t0)
		if now >= due {
			late[i] = float64(now-due) / 1e3
			op := l.ops[i%len(l.ops)]
			s := &l.slots[op.slot]
			if op.read {
				err = rd.loadRead(int(op.actor), s)
			} else {
				err = inst.write(s, int64(i+1))
			}
			if err != nil {
				rec.Failed++
			}
			i++
		} else {
			// Nothing is due. With the prober in this goroutine its next
			// probe counts too, and a probe in flight wants polling. (With
			// the prober in its own goroutine its state is not ours to
			// read.)
			gap, polling := due-now, false
			if !w.proberGoroutine {
				gap, polling = min(gap, pr.nextDue()-now), pr.active > 0
			}
			if gap > 2*time.Millisecond && !polling {
				time.Sleep(gap - time.Millisecond)
			} else {
				// The timer's wake-up is too coarse for gaps of a few
				// microseconds, so short waits spin, yielding the
				// processor each turn so that a delivery worker woken by
				// the last write runs at once.
				runtime.Gosched()
			}
		}
		if !w.proberGoroutine {
			pr.step(true)
		}
	}
	elapsed := time.Since(t0).Seconds()
	close(stop)
	wg.Wait()
	for !w.proberGoroutine && pr.active > 0 {
		pr.step(false)
		runtime.Gosched()
	}
	if err := inst.sync(); err != nil {
		rec.Failed++
		rec.Note = "sync: " + err.Error()
	}

	rec.Issued = int64(n)
	// The last op is due at (n-1)/rate; finishing later than that means
	// the generator could not hold the rate.
	rec.AchievedShare = min(1, float64(n-1)/rate/elapsed)
	rec.LateP50Us, rec.LateP99Us, rec.LateMaxUs = quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1)
	rec.Probes, rec.Timeouts = int64(len(pr.samples))+pr.timeouts, pr.timeouts
	rec.VisibleP50Us, rec.VisibleP75Us = quantile(pr.samples, 0.5), quantile(pr.samples, 0.75)
	rec.VisibleP95Us, rec.VisibleP99Us, rec.VisibleMaxUs = quantile(pr.samples, 0.95), quantile(pr.samples, 0.99), quantile(pr.samples, 1)
	rec.Failed += pr.timeouts + pr.errors

	bad, note := checkInstance(inst, l, l.expected(n), pr.last)
	rec.Failed += bad
	if rec.AchievedShare < minAchievedShare {
		rec.Failed++
		note = "generator held less than 98% of the target rate: latency samples are void"
	}
	if note != "" {
		rec.Note = note
	}
	return rec
}

// prober measures write-to-visible time. Probe j is due at j*period and
// goes to probe register j mod K; its sample runs from that due time —
// not from when the write was actually made — to the poll that finds the
// value at the last of the other holders. Up to K probes, one per
// register, are in flight at once, so one slow probe delays the next K-1
// only if it outlasts K periods. Values per register count up, so a
// holder showing a later value has applied the earlier one too.
type prober struct {
	inst    instance
	probes  []slot
	period  time.Duration
	timeout time.Duration
	t0      time.Time

	next   int // probes launched so far
	active int // probes in flight
	fl     []inflight

	samples  []float64 // visible times, µs
	timeouts int64
	errors   int64
	last     []int64 // last value written per probe register
}

type inflight struct {
	active bool
	due    time.Duration
	val    int64
	seen   []bool // per holder
}

func newProber(inst instance, probes []slot, sp *spec, t0 time.Time, seconds float64) *prober {
	p := &prober{
		inst: inst, probes: probes, t0: t0,
		period:  time.Second / time.Duration(sp.ProbeHz),
		timeout: time.Duration(sp.ProbeTimeoutMs) * time.Millisecond,
		samples: make([]float64, 0, int(seconds*float64(sp.ProbeHz))+len(probes)),
		last:    make([]int64, len(probes)),
		fl:      make([]inflight, len(probes)),
	}
	for i := range p.fl {
		p.fl[i].seen = make([]bool, len(probes[i].holders))
	}
	return p
}

// nextDue is when the next probe is to be written.
func (p *prober) nextDue() time.Duration { return time.Duration(p.next) * p.period }

// step writes the next probe if it is due, launch is set and its register
// is free, then polls every probe in flight once.
func (p *prober) step(launch bool) {
	k := p.next % len(p.probes)
	if f := &p.fl[k]; launch && !f.active && p.nextDue() <= time.Since(p.t0) {
		s := &p.probes[k]
		f.active, f.due, f.val = true, p.nextDue(), p.last[k]+1
		for h := range f.seen {
			f.seen[h] = s.holders[h] == s.home
		}
		if err := p.inst.write(s, f.val); err != nil {
			p.errors++
			f.active = false
		} else {
			p.last[k] = f.val
			p.active++
		}
		p.next++
	}
	if p.active == 0 {
		return
	}
	for i := range p.fl {
		f := &p.fl[i]
		if !f.active {
			continue
		}
		s := &p.probes[i]
		all := true
		for h, holder := range s.holders {
			if f.seen[h] {
				continue
			}
			if v, err := p.inst.read(s, holder); err == nil && v >= f.val {
				f.seen[h] = true
			} else {
				all = false
			}
		}
		age := time.Since(p.t0) - f.due
		switch {
		case all:
			p.samples = append(p.samples, float64(age)/1e3)
		case age > p.timeout:
			p.timeouts++
		default:
			continue
		}
		f.active = false
		p.active--
	}
}
