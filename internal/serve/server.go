package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"meg/internal/spec"
)

// maxSpecBytes bounds the request body of a job submission.
const maxSpecBytes = 1 << 20

// Server is the HTTP face of the scheduler: the megserve API.
//
//	POST   /v1/jobs            submit a spec, get {id, hash, status, outcome}
//	GET    /v1/jobs/{id}       job status, progress, and (when done) result
//	DELETE /v1/jobs/{id}       cancel a job
//	GET    /v1/jobs/{id}/events  SSE stream of progress events
//	GET    /v1/cache/{hash}    cached result bytes by content address
//	GET    /healthz            liveness + registry-backed counters (503 while draining)
//	GET    /metrics            Prometheus text exposition
//	GET    /debug/pprof/*      runtime profiles (EnablePprof / megserve -pprof)
type Server struct {
	sched *Scheduler
	m     *Metrics
	mux   *http.ServeMux
}

// NewServer wires the API routes around a scheduler. Every route runs
// through the latency/status middleware; if the scheduler has no
// metrics bundle attached yet, NewServer attaches a fresh one, so
// /metrics and /healthz always have a registry behind them.
func NewServer(sched *Scheduler) *Server {
	if sched.metrics == nil {
		sched.Instrument(NewMetrics())
	}
	s := &Server{sched: sched, m: sched.metrics, mux: http.NewServeMux()}
	s.handle("POST /v1/jobs", "submit", s.handleSubmit)
	s.handle("GET /v1/jobs/{id}", "job", s.handleJob)
	s.handle("DELETE /v1/jobs/{id}", "cancel", s.handleCancel)
	s.handle("GET /v1/jobs/{id}/events", "events", s.handleEvents)
	s.handle("GET /v1/cache/{hash}", "cache", s.handleCache)
	s.handle("GET /healthz", "healthz", s.handleHealth)
	s.handle("GET /metrics", "metrics", s.m.Registry().Handler().ServeHTTP)
	return s
}

// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/ —
// profile endpoints are opt-in (megserve -pprof), never on by default.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// handle registers a route through the observation middleware: per-
// route request counts (by status code) and latency histograms under
// a stable route label — {id}/{hash} wildcards never explode the
// label space.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.m.httpRequest(route, sw.code, time.Since(start))
	})
}

// statusWriter captures the response status code for the middleware.
// It implements http.Flusher unconditionally (no-op when the wrapped
// writer can't flush) so the SSE handler streams through it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError writes a {error: ...} payload.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// submitResponse is the POST /v1/jobs payload.
type submitResponse struct {
	ID      string    `json:"id"`
	Hash    string    `json:"hash"`
	Status  JobStatus `json:"status"`
	Outcome Outcome   `json:"outcome"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// MaxBytesReader stops the read at the limit and tells the server to
	// close the connection, so an oversized body is never drained. Only
	// the server's own writer can take that signal, so it gets the one
	// beneath the middleware's statusWriter.
	rw := w
	if sw, ok := w.(*statusWriter); ok {
		rw = sw.ResponseWriter
	}
	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, maxSpecBytes))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	sp, err := spec.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, outcome, err := s.sched.Submit(sp)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	code := http.StatusAccepted
	if outcome == OutcomeCached {
		code = http.StatusOK
	}
	writeJSON(w, code, submitResponse{ID: job.ID, Hash: job.Hash, Status: job.Status(), Outcome: outcome})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job.View(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sched.Cancel(id) {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	job, _ := s.sched.Get(id)
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": job.Status()})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	replay, live, unsubscribe := job.Subscribe()
	defer unsubscribe()
	for _, e := range replay {
		writeSSE(w, e)
	}
	flusher.Flush()
	// The replay of a finished job already ends with the terminal
	// event; a live job's channel closes after delivering it. A slow
	// subscriber can lose events to channel backpressure, though, so if
	// the channel closes before we saw a terminal event, synthesize it
	// from the job's final status — the stream contract is that it
	// always ends with done/canceled/error on job completion.
	if len(replay) > 0 && isTerminalEvent(replay[len(replay)-1]) {
		return
	}
	for {
		select {
		case e, ok := <-live:
			if !ok {
				writeSSE(w, terminalEventFor(job))
				flusher.Flush()
				return
			}
			writeSSE(w, e)
			flusher.Flush()
			if isTerminalEvent(e) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// terminalEventFor reconstructs the terminal event from a finished
// job's state (used when the live channel dropped it under
// backpressure).
func terminalEventFor(j *Job) Event {
	switch j.Status() {
	case StatusFailed:
		return Event{Type: "error", Message: j.Err()}
	case StatusCanceled:
		return Event{Type: "canceled"}
	default:
		return Event{Type: "done"}
	}
}

// isTerminalEvent reports whether the event ends the stream.
func isTerminalEvent(e Event) bool {
	switch e.Type {
	case "done", "canceled", "error":
		return true
	}
	return false
}

// writeSSE writes one event in text/event-stream framing.
func writeSSE(w io.Writer, e Event) {
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	data, ok := s.sched.cache.Get(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, "no cached result")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// healthResponse is the GET /healthz payload: liveness plus the
// registry's own counters, so the health view and the /metrics scrape
// can never disagree. During graceful-shutdown drain ok flips to false
// and the endpoint returns 503, telling load balancers to stop routing
// here while in-flight work settles.
type healthResponse struct {
	OK            bool        `json:"ok"`
	Draining      bool        `json:"draining"`
	UptimeSeconds float64     `json:"uptimeSeconds"`
	Jobs          healthJobs  `json:"jobs"`
	Cache         healthCache `json:"cache"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	draining := s.sched.Draining()
	resp := healthResponse{
		OK:            !draining,
		Draining:      draining,
		UptimeSeconds: s.m.Uptime().Seconds(),
		Jobs:          s.m.healthJobs(),
		Cache:         s.m.healthCache(),
	}
	code := http.StatusOK
	if draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}
