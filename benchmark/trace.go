package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the drivers made into a layer. Parent is the
// index of the enclosing span, or -1 for a root; Op is the index of the
// generated op the call served, or -1 when the call serves a whole pass.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Op      int64  `json:"op"`
}

// tracer records spans into a buffer allocated once, so recording never
// allocates inside a timed region. A nil tracer records nothing and costs
// one nil check per call site: that is the untraced run. It is used by
// one goroutine at a time (the driver).
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int // spans that did not fit the buffer
}

// sampleEvery is the per-op sampling period: spans around per-op calls
// are kept for about one op in 64, calls made once per pass are always
// kept. The period is prime because op streams have periods of their own
// (clientserver_mixed repeats every 64 ops) and a common factor would
// sample the same kind of op every time.
const sampleEvery = 61

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index, or -1 if nothing was recorded.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNs: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	}
}

// durations returns the length of every closed span with the given name,
// in nanoseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.EndNs > 0 {
			out = append(out, float64(s.EndNs-s.StartNs))
		}
	}
	return out
}

// traceFile is the on-disk form: the spans plus each span name's total
// and self time: a span's time minus the time its direct children cover,
// a sampled per-op child (Op >= 0) standing for sampleEvery calls.
type traceFile struct {
	Workload    string               `json:"workload"`
	SampleEvery int                  `json:"sample_every"`
	Dropped     int                  `json:"dropped"`
	ByName      map[string]spanTotal `json:"by_name"`
	Spans       []span               `json:"spans"`
}

type spanTotal struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func (t *tracer) totals() map[string]spanTotal {
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent >= 0 && s.EndNs > 0 {
			d := s.EndNs - s.StartNs
			if s.Op >= 0 {
				d *= sampleEvery
			}
			child[s.Parent] += d
		}
	}
	out := make(map[string]spanTotal)
	for i := range t.spans {
		s := &t.spans[i]
		if s.EndNs == 0 {
			continue
		}
		tot := out[s.Name]
		tot.Count++
		tot.TotalNs += s.EndNs - s.StartNs
		tot.SelfNs += s.EndNs - s.StartNs - child[i]
		out[s.Name] = tot
	}
	return out
}

// write stores the trace as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{
		Workload: workload, SampleEvery: sampleEvery, Dropped: t.dropped,
		ByName: t.totals(), Spans: t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
