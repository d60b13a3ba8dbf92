package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"lrcrace/internal/sweep"
)

// Handler returns the service's HTTP surface, sharing one mux with the
// observability endpoints the sweep established:
//
//	POST /sessions                — submit a RunRequest; 202 + SessionInfo,
//	                                400 (invalid request) or 503 (overloaded)
//	GET  /sessions                — list retained sessions
//	GET  /sessions/{id}           — one session; ?wait=<dur> long-polls
//	                                until it reaches a terminal state
//	GET  /reports                 — report-store batch: ?since=<seq>,
//	                                ?session=<id>, ?max=<n>; ?wait=<dur>
//	                                long-polls for new records
//	GET  /reports/stream          — SSE: one `data:` record per line,
//	                                ?since/?session as above
//	GET  /metrics                 — Prometheus text: service gauges plus
//	                                every session's series, session-labeled
//	GET  /flight/{id}             — flight-recorder dump of one session
//
// Commands wrap this handler with the shared /healthz and /version
// endpoints (cmd/internal/cli).
func (svc *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", svc.handleSubmit)
	mux.HandleFunc("GET /sessions", svc.handleSessions)
	mux.HandleFunc("GET /sessions/{id}", svc.handleSession)
	mux.HandleFunc("GET /reports", svc.handleReports)
	mux.HandleFunc("GET /reports/stream", svc.handleStream)
	mux.HandleFunc("GET /metrics", svc.handleMetrics)
	mux.HandleFunc("GET /flight/{id}", svc.handleFlight)
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "lrcrace detection service: POST /sessions, GET /sessions[/{id}], /reports[/stream], /metrics, /flight/{id}\n")
	})
	return mux
}

// apiError is the JSON error body; Code is machine-readable so clients
// can distinguish rejection classes.
type apiError struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// Error codes carried in apiError.Code.
const (
	codeInvalidRequest = "invalid_request"
	codeOverloaded     = "overloaded"
	codeShuttingDown   = "shutting_down"
	codeNotFound       = "not_found"
)

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeAdmissionError maps Submit's typed errors onto HTTP statuses: a
// *RequestError can never succeed (400), overload and shutdown are
// retryable (503, overload with Retry-After).
func writeAdmissionError(w http.ResponseWriter, err error) {
	var reqErr *RequestError
	var ovlErr *OverloadError
	switch {
	case errors.As(err, &reqErr):
		writeJSON(w, http.StatusBadRequest, apiError{Code: codeInvalidRequest, Error: err.Error()})
	case errors.As(err, &ovlErr):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Code: codeOverloaded, Error: err.Error()})
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Code: codeShuttingDown, Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, apiError{Code: "internal", Error: err.Error()})
	}
}

// maxRequestBytes caps a POST /sessions body; a RunRequest is a few
// hundred bytes.
const maxRequestBytes = 1 << 20

func (svc *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Unknown fields are rejected, not ignored: a request carrying a knob
	// this service does not have must not look as if it took effect.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Code: codeInvalidRequest, Error: "parsing request body: " + err.Error()})
		return
	}
	sess, err := svc.Submit(req)
	if err != nil {
		writeAdmissionError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, sess.Info())
}

func (svc *Service) handleSessions(w http.ResponseWriter, _ *http.Request) {
	sessions := svc.Sessions()
	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		info := s.Info()
		info.Races = nil // keep the listing lean; fetch one session for reports
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (svc *Service) handleSession(w http.ResponseWriter, r *http.Request) {
	sess := svc.Session(r.PathValue("id"))
	if sess == nil {
		writeJSON(w, http.StatusNotFound, apiError{Code: codeNotFound, Error: "no such session (evicted or never admitted)"})
		return
	}
	if wait := parseWait(r); wait > 0 {
		select {
		case <-sess.Done():
		case <-time.After(wait):
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

// parseWait bounds a ?wait=<duration> long-poll window to 60s.
func parseWait(r *http.Request) time.Duration {
	d, err := time.ParseDuration(r.URL.Query().Get("wait"))
	if err != nil || d <= 0 {
		return 0
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// ReportBatch is the /reports response: the records, the cursor to pass
// back as since, and loss accounting (records dropped by store retention
// inside the requested window).
type ReportBatch struct {
	Records []Record `json:"records"`
	// Next is the last returned record's sequence number (or the store
	// tail when the batch is empty): the next request's since.
	Next uint64 `json:"next"`
	// Lost is how many records between since and the oldest retained one
	// were discarded by retention; 0 means the batch is gapless.
	Lost uint64 `json:"lost,omitempty"`
}

func (svc *Service) handleReports(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, _ := strconv.ParseUint(q.Get("since"), 10, 64)
	session := q.Get("session")
	max, _ := strconv.Atoi(q.Get("max"))
	if max <= 0 || max > 10000 {
		max = 10000
	}
	recs, lost, next := svc.store.Since(since, session, max)
	if len(recs) == 0 {
		if wait := parseWait(r); wait > 0 {
			sub := svc.store.Subscribe(session, 1)
			defer sub.Close()
			// Re-check under the subscription so an append between the
			// first read and Subscribe cannot be slept through.
			if recs, lost, next = svc.store.Since(since, session, max); len(recs) == 0 {
				select {
				case <-sub.C():
				case <-time.After(wait):
				case <-r.Context().Done():
					return
				}
				recs, lost, next = svc.store.Since(since, session, max)
			}
		}
	}
	if recs == nil {
		recs = []Record{}
	}
	writeJSON(w, http.StatusOK, ReportBatch{Records: recs, Next: next, Lost: lost})
}

// handleStream is the SSE feed: replay from ?since, then follow the
// subscriber, healing buffer gaps by replaying from the store so every
// retained record is delivered exactly once, in sequence order.
func (svc *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	q := r.URL.Query()
	since, _ := strconv.ParseUint(q.Get("since"), 10, 64)
	session := q.Get("session")
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	sub := svc.store.Subscribe(session, svc.cfg.SubscriberBuf)
	defer sub.Close()
	last := since
	emit := func(rec Record) {
		b, _ := json.Marshal(rec)
		fmt.Fprintf(w, "id: %d\ndata: %s\n\n", rec.Seq, b)
		last = rec.Seq
	}
	// replay pulls everything after the cursor straight from the store —
	// the initial catch-up, and the gap-healing path after buffer drops.
	replay := func() {
		recs, lost, _ := svc.store.Since(last, session, 0)
		if lost > 0 {
			emit(Record{Seq: last + lost, Session: session, Kind: KindTruncated,
				Detail: fmt.Sprintf("%d records dropped by store retention", lost)})
		}
		for _, rec := range recs {
			emit(rec)
		}
		fl.Flush()
	}
	replay()
	for {
		select {
		case <-r.Context().Done():
			return
		case rec := <-sub.C():
			if sub.TakeGap() {
				// The buffer dropped records; the store still has them.
				replay()
				continue
			}
			if rec.Seq <= last {
				continue // already delivered by a replay
			}
			emit(rec)
			fl.Flush()
		}
	}
}

func (svc *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counts := svc.Counts()
	for _, g := range []struct {
		name, help string
		v          int
	}{
		{"svc_sessions_queued", "Sessions admitted and waiting for a pool slot.", counts[StateQueued]},
		{"svc_sessions_running", "Sessions currently executing.", counts[StateRunning]},
		{"svc_sessions_done", "Retained sessions with a terminal result.", counts[StateDone]},
		{"svc_sessions_canceled", "Sessions canceled by shutdown.", counts[StateCanceled]},
		{"svc_store_records", "Records currently retained by the report store.", svc.store.Len()},
		{"svc_store_appended_total", "Records ever appended to the report store.", int(svc.store.Appended())},
		{"svc_store_dropped_total", "Records discarded by report-store retention.", int(svc.store.Dropped())},
		{"svc_subscribers", "Live report-store subscribers.", svc.store.Subscribers()},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.v)
	}
	sweep.WriteSnapshotsProm(w, "session", svc.snapshots())
}

func (svc *Service) handleFlight(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec := svc.flightRecorder(id)
	if rec == nil {
		http.Error(w, fmt.Sprintf("no recorder for session %q (not started yet?)", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	rec.DumpFlight(w, "on-demand dump over /flight")
}
