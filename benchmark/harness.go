package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	prcc "repro"
)

// workloadDef binds a workload name to the code that lays out its load
// and starts its runtime. Sizes and rates live in spec.json.
type workloadDef struct {
	name string
	// layer prefixes this workload's driver spans ("sim.write", ...).
	layer string
	// layout generates the placement, slots and op stream from the seed.
	layout func(seed int64, ops int) *load
	// start performs the whole set-up — graph, timestamp graphs, protocol,
	// runtime — and returns a fresh instance. Its wall time is one
	// setup_s sample.
	start func(*load, startOpts) (instance, error)
	// batch, when set, replaces the op loop of a saturation pass with one
	// call that takes the whole stream (audit_ring64's sim.Run).
	batch func(l *load, n int, o startOpts, tr *tracer, parent int32) (batchOut, error)
	// proberGoroutine gives the paced phase's prober a goroutine of its
	// own; see runPaced.
	proberGoroutine bool
	// unaudited marks runtimes whose timed passes run with the oracle off;
	// they get a verification pass with it on.
	unaudited bool
	// metaBytes, when set, counts update messages and their metadata
	// bytes for the first n ops on behalf of a runtime that does not
	// count them itself.
	metaBytes func(l *load, n int) (msgs, bytes int64, err error)
}

// batchOut is what a batch pass reports in place of an instance.
type batchOut struct {
	setupS    float64
	wallS     float64
	msgs      int64
	metaBytes int64
	failed    int64
	note      string
}

// passRecord is the raw outcome of one saturation pass.
type passRecord struct {
	Kind       string     `json:"kind"`          // warmup, timed, spans, armed, verify
	Speed      float64    `json:"machine_speed"` // machineSpeed just before the pass
	SetupS     float64    `json:"setup_s"`
	Ops        int64      `json:"ops"`
	WallS      float64    `json:"wall_s"`
	OpsPerS    float64    `json:"ops_per_s"`
	AllocBytes uint64     `json:"alloc_bytes"`
	Mallocs    uint64     `json:"mallocs"`
	CPUS       float64    `json:"cpu_s"`
	Msgs       int64      `json:"msgs"`
	MetaBytes  int64      `json:"meta_bytes"`
	Failed     int64      `json:"failed"`
	QuarterS   [4]float64 `json:"quarter_s"` // wall time of each quarter of the op loop
	Note       string     `json:"note,omitempty"`

	snap       prcc.Metrics // armed passes: the obs snapshot after sync
	goroutines int          // traced passes: peak sampled
	queuedOut  int          // traced wire passes: peak sampled
	dropped    int64        // wire passes: frames the transports dropped
}

// rusage returns the process's user+system CPU time so far, in seconds,
// and its high-water resident set, in MiB.
func rusage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func cpuSeconds() float64 {
	cpu, _ := rusage()
	return cpu
}

// transportGauges is implemented by instances with a network transport
// of their own to look at.
type transportGauges interface {
	queuedOut() int // frames sitting in outgoing queues right now
	dropped() int64 // frames the transports gave up on
	ping() error    // one status round trip
}

// referee is implemented by instances whose final state can be compared
// against another runtime fed the same ops.
type referee interface {
	reference(l *load, n int) error
}

// runPass performs one saturation pass: full set-up of a fresh instance,
// the first n ops of the stream issued closed-loop by this goroutine,
// sync, and every correctness check. The measured interval runs from the
// first op to the end of sync.
func runPass(w *workloadDef, l *load, n int, kind string, o startOpts, tr *tracer) passRecord {
	rec := passRecord{Kind: kind, Ops: int64(n), Speed: machineSpeed()}
	root := tr.begin(w.name+".pass."+kind, -1, -1)
	defer tr.end(root)

	var m0, m1 runtime.MemStats
	if w.batch != nil {
		runtime.ReadMemStats(&m0)
		cpu0 := cpuSeconds()
		out, err := w.batch(l, n, o, tr, root)
		rec.CPUS = cpuSeconds() - cpu0
		runtime.ReadMemStats(&m1)
		if err != nil {
			rec.Failed, rec.Note = int64(n), err.Error()
			return rec
		}
		rec.SetupS, rec.WallS, rec.Msgs, rec.MetaBytes, rec.Failed, rec.Note = out.setupS, out.wallS, out.msgs, out.metaBytes, out.failed, out.note
		rec.finish(&m0, &m1)
		return rec
	}

	sid := tr.begin("setup", root, -1)
	t := time.Now()
	inst, err := w.start(l, o)
	rec.SetupS = time.Since(t).Seconds()
	tr.end(sid)
	if err != nil {
		rec.Failed, rec.Note = int64(n), "setup: "+err.Error()
		return rec
	}
	defer inst.close()

	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	rec.Failed = drive(w, inst, l, n, tr, root, &rec)
	sid = tr.begin(w.layer+".sync", root, -1)
	err = inst.sync()
	tr.end(sid)
	rec.WallS = time.Since(start).Seconds()
	rec.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	rec.finish(&m0, &m1)
	if err != nil {
		rec.Failed++
		rec.Note = "sync: " + err.Error()
	}
	if tg, ok := inst.(transportGauges); ok {
		rec.dropped = tg.dropped()
		for i := 0; tr != nil && i < 32; i++ {
			sid = tr.begin(w.layer+".status", root, -1)
			err := tg.ping()
			tr.end(sid)
			if err != nil {
				rec.Failed++
			}
		}
	}

	sid = tr.begin("check", root, -1)
	bad, note := checkInstance(inst, l, l.expected(n), nil)
	if kind == "verify" {
		if ref, ok := inst.(referee); ok {
			if err := ref.reference(l, n); err != nil {
				bad++
				note = err.Error()
			}
		}
	}
	tr.end(sid)
	rec.Failed += bad
	if note != "" {
		rec.Note = note
	}
	if m, err := inst.metrics(); err == nil {
		rec.Msgs, rec.MetaBytes, rec.snap = m.Messages, m.MetaBytes, m
	}
	return rec
}

func (rec *passRecord) finish(m0, m1 *runtime.MemStats) {
	rec.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	rec.Mallocs = m1.Mallocs - m0.Mallocs
	if rec.WallS > 0 {
		rec.OpsPerS = float64(rec.Ops) / rec.WallS
	}
}

// drive issues ops [0,n) one after another and returns how many failed.
// With a tracer, one op in sampleEvery gets a span and a look at the
// process gauges.
func drive(w *workloadDef, inst instance, l *load, n int, tr *tracer, parent int32, rec *passRecord) (failed int64) {
	rd, _ := inst.(loadReader)
	qs, _ := inst.(transportGauges)
	writeName, readName := w.layer+".write", w.layer+".read"
	quarter, nextQ := 0, (n+3)/4
	t0 := time.Now()
	for i := 0; i < n; i++ {
		o := l.ops[i%len(l.ops)]
		s := &l.slots[o.slot]
		id := int32(-1)
		if tr != nil && i%sampleEvery == 0 {
			rec.goroutines = max(rec.goroutines, runtime.NumGoroutine())
			if qs != nil && i%(16*sampleEvery) == 0 {
				rec.queuedOut = max(rec.queuedOut, qs.queuedOut())
			}
			name := writeName
			if o.read {
				name = readName
			}
			id = tr.begin(name, parent, int64(i))
		}
		var err error
		if o.read {
			err = rd.loadRead(int(o.actor), s)
		} else {
			err = inst.write(s, int64(i+1))
		}
		tr.end(id)
		if err != nil {
			failed++
		}
		if i+1 == nextQ && quarter < 4 {
			now := time.Now()
			rec.QuarterS[quarter] = now.Sub(t0).Seconds()
			t0 = now
			quarter++
			nextQ = (n*(quarter+1) + 3) / 4
		}
	}
	return failed
}

// checkInstance runs the checks every pass ends with, after sync: nothing
// pending, the oracle (if armed) silent, and every register at every
// holder equal to the generator's last value for it. It returns the
// number of failed checks and a description of the first.
func checkInstance(inst instance, l *load, want, wantProbes []int64) (failed int64, note string) {
	fail := func(format string, args ...any) {
		failed++
		if note == "" {
			note = fmt.Sprintf(format, args...)
		}
	}
	if p, err := inst.pending(); err != nil {
		fail("pending: %v", err)
	} else if p != 0 {
		failed += p - 1
		fail("%d updates still pending after sync", p)
	}
	if err := inst.check(); err != nil {
		fail("oracle: %v", err)
	}
	checkSlots := func(slots []slot, want []int64) {
		for i := range slots {
			s := &slots[i]
			for _, h := range s.holders {
				if v, err := inst.read(s, h); err != nil {
					fail("read %s at %d: %v", s.reg, h, err)
				} else if v != want[i] {
					fail("space %d register %s at replica %d holds %d, last value written is %d", s.space, s.reg, h, v, want[i])
				}
			}
		}
	}
	checkSlots(l.slots, want)
	if wantProbes != nil {
		checkSlots(l.probes, wantProbes)
	}
	return failed, note
}
