package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// Handler returns an http.Handler serving the two status routes:
//
//	/statusz  — the full Snapshot as indented JSON (human-oriented)
//	/metricsz — a flat JSON object of "metric" -> number pairs with
//	            dotted keys ("replica.0.delivered", "edge.0->1.sent"),
//	            stable across runtimes for scrapers
//
// snap is called once per request; it must be safe for concurrent use
// (Registry.Snapshot is).
func Handler(snap func() Snapshot) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, snap(), true)
	})
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, Flatten(snap()), false)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any, indent bool) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false) // keep edge keys readable: "0->1" without > escapes
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Flatten converts a Snapshot into the flat /metricsz representation:
// an ordered map from dotted metric name to value. Zero-valued legacy
// totals are kept (a scraper wants a stable key set); absent breakdowns
// simply contribute no keys.
func Flatten(s Snapshot) map[string]int64 {
	out := map[string]int64{
		"messages":    s.Messages,
		"meta_bytes":  s.MetaBytes,
		"updates":     s.Updates,
		"batches":     s.Batches,
		"envelopes":   s.Envelopes,
		"max_batch":   s.MaxBatch,
		"outstanding": s.Outstanding,
		"parked":      s.Parked,
		"dropped":     s.Dropped,
		"duped":       s.Duped,
	}
	for i, r := range s.Replicas {
		p := "replica." + strconv.Itoa(i) + "."
		out[p+"delivered"] = r.Delivered
		out[p+"applied"] = r.Applied
		out[p+"stalls"] = r.Stalls
		out[p+"rechecks"] = r.Rechecks
		out[p+"ingest_drops"] = r.IngestDrops
		out[p+"parked"] = r.Parked
		out[p+"inbox_depth"] = r.InboxDepth
		out[p+"inbox_peak"] = r.InboxPeak
	}
	for i, q := range s.Queues {
		p := "queue." + strconv.Itoa(i) + "."
		out[p+"depth"] = q.Depth
		out[p+"peak"] = q.Peak
	}
	keys := make([]string, 0, len(s.Edges))
	for k := range s.Edges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := s.Edges[k]
		p := "edge." + k + "."
		out[p+"sent"] = e.Sent
		out[p+"bytes"] = e.Bytes
		out[p+"delivered"] = e.Delivered
		if e.Dropped != 0 {
			out[p+"dropped"] = e.Dropped
		}
		if e.Duped != 0 {
			out[p+"duped"] = e.Duped
		}
		if e.Retransmitted != 0 {
			out[p+"retransmitted"] = e.Retransmitted
		}
	}
	return out
}

// StatusServer is a running HTTP status endpoint bound to a listener.
type StatusServer struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (host:port; port 0 picks a free port) and serves the
// status routes for snap in a background goroutine until Close.
func Serve(addr string, snap func() Snapshot) (*StatusServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:     Handler(snap),
		ReadTimeout: 10 * time.Second,
	}
	s := &StatusServer{ln: ln, srv: srv}
	go srv.Serve(ln) //nolint:errcheck // always returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *StatusServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *StatusServer) Close() error { return s.srv.Close() }
