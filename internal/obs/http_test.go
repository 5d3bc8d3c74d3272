package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestStatuszGolden pins the /statusz wire format byte-for-byte on a
// fixed registry so any schema drift (renamed json tag, lost omitempty,
// reordered field) fails loudly instead of silently breaking scrapers.
func TestStatuszGolden(t *testing.T) {
	r := New(2, 2)
	r.Deliver(0, 1, 0) // stall
	r.Deliver(0, 1, 2) // apply + recheck
	r.Sent(0, 1, 48)
	r.Sent(0, 1, 48)
	r.QueueDepth(1, 3)

	snap := func() Snapshot {
		s := r.Snapshot()
		s.Runtime = "cluster"
		s.Messages = 2
		s.MetaBytes = 96
		s.Updates = 2
		return s
	}
	rec := httptest.NewRecorder()
	Handler(snap).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	const golden = `{
  "runtime": "cluster",
  "messages": 2,
  "meta_bytes": 96,
  "updates": 2,
  "replicas": [
    {
      "delivered": 0,
      "applied": 0,
      "stalls": 0,
      "rechecks": 0,
      "parked": 0,
      "inbox_depth": 0,
      "inbox_peak": 0
    },
    {
      "delivered": 2,
      "applied": 2,
      "stalls": 1,
      "rechecks": 1,
      "parked": 0,
      "inbox_depth": 3,
      "inbox_peak": 3
    }
  ],
  "edges": {
    "0->1": {
      "sent": 2,
      "bytes": 96,
      "delivered": 2
    }
  }
}
`
	if got := rec.Body.String(); got != golden {
		t.Errorf("/statusz body drifted from golden:\n got: %s\nwant: %s", got, golden)
	}
}

// TestMetricszFlatten pins the flat scraper representation: stable legacy
// totals, dotted breakdown keys, and conditional fault keys.
func TestMetricszFlatten(t *testing.T) {
	r := New(2, 4)
	r.Deliver(0, 1, 1)
	r.Sent(0, 1, 16)
	r.Dropped(0, 1)
	r.QueueDepth(2, 5)
	r.IngestDrop(1)
	s := r.Snapshot()
	s.Messages = 1
	s.MetaBytes = 16

	rec := httptest.NewRecorder()
	Handler(func() Snapshot { return s }).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	var flat map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &flat); err != nil {
		t.Fatalf("/metricsz not flat JSON: %v", err)
	}
	want := map[string]int64{
		"messages":               1,
		"meta_bytes":             16,
		"updates":                0, // zero legacy totals keep their keys
		"replica.1.delivered":    1,
		"replica.1.applied":      1,
		"replica.1.ingest_drops": 1,
		"queue.2.depth":          5,
		"queue.2.peak":           5,
		"edge.0->1.sent":         1,
		"edge.0->1.bytes":        16,
		"edge.0->1.dropped":      1,
	}
	for k, v := range want {
		if flat[k] != v {
			t.Errorf("flat[%q] = %d, want %d", k, flat[k], v)
		}
	}
	for _, absent := range []string{"edge.0->1.duped", "edge.1->0.sent"} {
		if _, ok := flat[absent]; ok {
			t.Errorf("flat key %q present, want absent", absent)
		}
	}
}

// TestConcurrentScrape races /statusz and /metricsz scrapes against
// writers hammering every counter — the exact interleaving a live
// cluster produces. Run under -race (tier-1 CI does) this pins the
// lock-free snapshot contract.
func TestConcurrentScrape(t *testing.T) {
	r := New(4, 4)
	h := Handler(func() Snapshot {
		s := r.Snapshot()
		s.Runtime = "cluster"
		return s
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Deliver(w, (w+1)%4, i%3)
				r.Sent(w, (w+1)%4, 32)
				r.QueueDepth(w, i%10)
				r.Batch(i % 5)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		path := "/statusz"
		if i%2 == 1 {
			path = "/metricsz"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("scrape %d: invalid JSON", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestStatusServer exercises the real listener path with port 0.
func TestStatusServer(t *testing.T) {
	r := New(2, 2)
	r.Deliver(0, 1, 1)
	srv, err := Serve("127.0.0.1:0", r.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(srv.Addr(), ":") {
		t.Fatalf("bad bound addr %q", srv.Addr())
	}
	resp, err := http.Get("http://" + srv.Addr() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if len(s.Replicas) != 2 || s.Replicas[1].Delivered != 1 {
		t.Errorf("served snapshot = %+v", s)
	}
}
