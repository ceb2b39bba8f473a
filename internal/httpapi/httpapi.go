// Package httpapi is the one HTTP/JSON front door of the matchd daemon.
// It serves a Backend: a jobs.Manager on a worker daemon, or a
// cluster.Coordinator on a coordinator. Routes:
//
//	POST   /v1/jobs             submit a job            → 202 JobInfo (200 on cache hit)
//	POST   /v1/jobs:batch       submit many jobs        → 200 BatchSubmitResponse (per-item statuses)
//	GET    /v1/jobs/{id}        job status              → 200 JobInfo
//	GET    /v1/jobs/{id}?state=S&wait=D  status once the job leaves S, or after D → 200 JobInfo
//	GET    /v1/jobs/{id}/result finished job's mapping  → 200 JobResult
//	GET    /v1/jobs/{id}/checkpoint latest resumable checkpoint → 200 CheckpointDoc
//	DELETE /v1/jobs/{id}        cancel a job            → 200 JobInfo
//	GET    /v1/jobs/{id}/events live progress (SSE)     → text/event-stream
//	POST   /v1/islands/{session}/packets  island-exchange packet from a peer node → 204
//	GET    /v1/islands/{session}          island session status     → 200
//	GET    /v1/cluster          topology + routing status → 200 ClusterStatus
//	POST   /v1/cluster/drain    drain a worker's solves   → 200 ClusterStatus
//	GET    /v1/traces           recent trace summaries  → 200 [TraceSummary]
//	GET    /v1/traces/{id}      one trace's span tree   → 200 TraceDoc
//	GET    /healthz             liveness                → 200 {"status":"ok"}
//	GET    /readyz              readiness checks        → 200/503 ReadyStatus
//	GET    /metrics             Prometheus text format  → 200
//
// Every backend gets the job, trace, probe and metrics routes. The rest
// are mounted when the backend's type has the methods behind them: a
// jobs.Manager adds /checkpoint, /events and /v1/islands; a
// cluster.Coordinator adds /v1/cluster and /v1/cluster/drain. A route a
// backend does not mount is a 404.
//
// The ?state=&wait= form of the status route is a long-poll: while the
// job is still in state S it holds the request for up to the Go duration
// D (capped at maxStatusWait), answering as soon as the state changes; a
// terminal job answers at once. A wait that does not parse, is negative,
// or names no known state is a 400. Long-polls are recorded under their
// own route label, "GET /v1/jobs/{id}?wait", so the status route's
// latency series measures plain status calls only.
//
// Every non-2xx response body is an api.Error document. The SSE stream
// replays the job's event history, then follows it live (an optional
// ?from=N query resumes the replay at event index N, so a reconnecting
// client skips what it already saw); each `data:` payload is one
// api.Event JSON document (the internal trace schema), so concatenating
// them yields a valid trace stream.
//
// The /v1/islands routes are the cooperative-solve fabric: a matchd node
// solving part of an island-model job POSTs exchange packets to the
// nodes running the peer islands, which file them on the local board for
// their islands to consume.
//
// Tracing: when the backend carries a tracer, the middleware opens a
// server span per request — continuing the trace named by an incoming
// W3C `traceparent` header, or rooting a new one on routes that always
// trace (job submission) — and puts it in the request context, where the
// backend parents the job's root span under it. Island packet posts
// carry the sending daemon's exchange-span traceparent, which is how one
// trace ID ends up covering every cooperating node. /metrics honours an
// `Accept: application/openmetrics-text` header (or `?exemplars=1`) by
// rendering the OpenMetrics flavour with trace-ID exemplars on histogram
// buckets; the default output stays plain text-format 0.0.4.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"matchsim/api"
	"matchsim/internal/island"
	"matchsim/internal/jobs"
	"matchsim/internal/telemetry"
)

// Backend is the service behind the HTTP surface. *jobs.Manager and
// *cluster.Coordinator implement it. Errors are matched with errors.Is
// against the jobs sentinels (ErrQueueFull, ErrShuttingDown,
// ErrUnknownJob, ErrNotDone) to pick the response status.
type Backend interface {
	SubmitCtx(ctx context.Context, req api.SubmitRequest) (api.JobInfo, error)
	Info(id string) (api.JobInfo, error)
	// WaitInfo is Info as a long-poll: it returns once the job is no
	// longer in state (at once for a terminal job), when wait expires,
	// when ctx ends, or when the backend shuts down.
	WaitInfo(ctx context.Context, id, state string, wait time.Duration) (api.JobInfo, error)
	Result(id string) (api.JobResult, error)
	Cancel(id string) (api.JobInfo, error)
	Readiness() (bool, []api.ReadyCheck)
	Closed() bool
	Registry() *telemetry.Registry
	Tracer() *telemetry.Tracer
	Logger() *slog.Logger
}

// The optional capabilities: New mounts a capability's routes only when
// the backend implements it.
type (
	// checkpointer exports a job's resumable checkpoint (worker).
	checkpointer interface {
		Checkpoint(id string) (api.CheckpointDoc, error)
	}
	// subscriber streams a job's events (worker).
	subscriber interface {
		SubscribeFrom(id string, from int) (<-chan api.Event, func(), error)
	}
	// islandHost holds the board island-exchange packets are filed on
	// (worker).
	islandHost interface {
		Board() *island.Board
	}
	// clusterHost reports topology and drains workers (coordinator).
	clusterHost interface {
		Status() api.ClusterStatus
		DrainWorker(worker string) error
	}
)

// Server adapts a Backend to net/http. Every route is wrapped in RED
// middleware feeding the backend's telemetry registry: request count by
// (route, method, code), error count, and a latency histogram per route
// with trace-ID exemplars. Streaming routes (SSE) record time-to-first-
// byte in the request-latency histogram — stream lifetime would poison
// its p99 — and their full lifetime in a separate stream histogram.
type Server struct {
	backend Backend
	mux     *http.ServeMux
	tracer  *telemetry.Tracer

	requests      *telemetry.CounterVec
	errors        *telemetry.CounterVec
	latency       *telemetry.HistogramVec
	streamSeconds *telemetry.HistogramVec // nil unless an SSE route is mounted
}

// traceMode decides when the middleware opens a server span for a route.
type traceMode int

const (
	// traceOff never traces the route (probes, scrapes, trace reads —
	// tracing the trace endpoint would feed back into its own ring).
	traceOff traceMode = iota
	// traceOnHeader traces only requests that arrive with a traceparent
	// header, joining the caller's trace. Poll-style routes use this so
	// a Wait loop does not flood the ring with single-span traces.
	traceOnHeader
	// traceAlways traces every request, rooting a fresh trace when no
	// traceparent arrives (job submission: the trace everything else
	// hangs off).
	traceAlways
)

// routeOpts configures one route's middleware behaviour.
type routeOpts struct {
	trace     traceMode
	streaming bool
	// longPoll records requests carrying ?wait= under the route label
	// pattern+"?wait": a parked wait would poison the latency series of
	// the route's plain calls.
	longPoll bool
}

// maxStatusWait caps the wait of a status long-poll.
const maxStatusWait = 30 * time.Second

// New builds the HTTP surface over b, instrumenting b.Registry() and
// tracing with b.Tracer() (nil tracer = tracing off everywhere).
func New(b Backend) *Server {
	reg := b.Registry()
	s := &Server{
		backend: b,
		mux:     http.NewServeMux(),
		tracer:  b.Tracer(),
		requests: reg.CounterVec("matchd_http_requests_total",
			"HTTP requests served, by route pattern, method and status code.",
			"route", "method", "code"),
		errors: reg.CounterVec("matchd_http_request_errors_total",
			"HTTP requests answered with a 4xx or 5xx status, by route pattern.",
			"route"),
		latency: reg.HistogramVec("matchd_http_request_seconds",
			"HTTP request latency, by route pattern. Streaming routes record time-to-first-byte here; see matchd_http_stream_seconds for their lifetimes.",
			telemetry.ExpBuckets(0.001, 4, 8), "route"),
	}
	s.handle("POST /v1/jobs", s.submit, routeOpts{trace: traceAlways})
	s.handle("POST /v1/jobs:batch", s.submitBatch, routeOpts{trace: traceAlways})
	s.handle("GET /v1/jobs/{id}", s.status, routeOpts{trace: traceOnHeader, longPoll: true})
	s.handle("GET /v1/jobs/{id}/result", s.result, routeOpts{trace: traceOnHeader})
	if c, ok := b.(checkpointer); ok {
		s.handle("GET /v1/jobs/{id}/checkpoint", checkpoint(c), routeOpts{trace: traceOnHeader})
	}
	s.handle("DELETE /v1/jobs/{id}", s.cancel, routeOpts{trace: traceOnHeader})
	if sub, ok := b.(subscriber); ok {
		s.streamSeconds = reg.HistogramVec("matchd_http_stream_seconds",
			"Full lifetime of streaming (SSE) requests, by route pattern.",
			telemetry.ExpBuckets(0.01, 4, 10), "route")
		s.handle("GET /v1/jobs/{id}/events", events(sub), routeOpts{trace: traceOnHeader, streaming: true})
	}
	if ih, ok := b.(islandHost); ok {
		s.handle("POST /v1/islands/{session}/packets", islandPost(ih), routeOpts{trace: traceOnHeader})
		s.handle("GET /v1/islands/{session}", islandStatus(ih), routeOpts{trace: traceOnHeader})
	}
	if ch, ok := b.(clusterHost); ok {
		s.handle("GET /v1/cluster", clusterStatus(ch), routeOpts{trace: traceOnHeader})
		s.handle("POST /v1/cluster/drain", clusterDrain(ch), routeOpts{trace: traceOnHeader})
	}
	s.handle("GET /v1/traces", s.traces, routeOpts{trace: traceOff})
	s.handle("GET /v1/traces/{id}", s.traceByID, routeOpts{trace: traceOff})
	s.handle("GET /healthz", s.healthz, routeOpts{trace: traceOff})
	s.handle("GET /readyz", s.readyz, routeOpts{trace: traceOff})
	s.handle("GET /metrics", s.metrics, routeOpts{trace: traceOff})
	return s
}

// handle registers h under the mux pattern, wrapped in the RED/tracing
// middleware. The route label is the pattern itself — a bounded set,
// immune to the path-cardinality explosion raw URLs would cause.
func (s *Server) handle(pattern string, h http.HandlerFunc, opts routeOpts) {
	log := s.backend.Logger()
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		route := pattern
		if opts.longPoll && r.URL.Query().Has("wait") {
			route += "?wait"
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		var rw http.ResponseWriter = rec
		if f, ok := w.(http.Flusher); ok {
			// Preserve streaming: the SSE handler requires http.Flusher.
			rw = &flushingRecorder{statusRecorder: rec, flusher: f}
		}

		var span *telemetry.Span
		if s.tracer != nil && opts.trace != traceOff {
			tp := r.Header.Get("traceparent")
			if opts.trace == traceAlways || tp != "" {
				var ctx context.Context
				ctx, span = s.tracer.StartSpanRemote(r.Context(), route, tp)
				span.SetAttr("method", r.Method)
				span.SetAttr("remote", r.RemoteAddr)
				r = r.WithContext(ctx)
			}
		}

		h(rw, r)

		elapsed := time.Since(start)
		s.requests.With(route, r.Method, strconv.Itoa(rec.code)).Inc()
		if rec.code >= 400 {
			s.errors.With(route).Inc()
			log.Warn("request failed", "route", route, "code", rec.code,
				"duration", elapsed, "remote", r.RemoteAddr)
		}
		latency := elapsed
		if opts.streaming {
			// Time-to-first-byte for the latency series; the stream's
			// lifetime lands in its own histogram.
			if !rec.firstByte.IsZero() {
				latency = rec.firstByte.Sub(start)
			}
			s.streamSeconds.With(route).ObserveExemplar(elapsed.Seconds(), span.TraceID())
		}
		s.latency.With(route).ObserveExemplar(latency.Seconds(), span.TraceID())
		if span != nil {
			span.SetAttrInt("code", int64(rec.code))
			if rec.code >= 400 {
				span.SetStatus("error")
			} else {
				span.SetStatus("ok")
			}
			span.End()
		}
	})
}

// statusRecorder captures the response status and first-byte time for
// the RED middleware.
type statusRecorder struct {
	http.ResponseWriter
	code      int
	firstByte time.Time
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.firstByte.IsZero() {
		sr.firstByte = time.Now()
	}
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.firstByte.IsZero() {
		sr.firstByte = time.Now()
	}
	return sr.ResponseWriter.Write(b)
}

// flushingRecorder is a statusRecorder over a streaming-capable writer; it
// forwards Flush so wrapped handlers still pass the http.Flusher check.
type flushingRecorder struct {
	*statusRecorder
	flusher http.Flusher
}

func (fr *flushingRecorder) Flush() { fr.flusher.Flush() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.Error{Status: status, Message: fmt.Sprintf(format, args...)})
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	info, err := s.backend.SubmitCtx(r.Context(), req)
	switch {
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrShuttingDown):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	status := http.StatusAccepted
	if info.State == api.StateDone { // answered from the result cache
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

// submitBatch amortises per-request overhead for bulk submitters: every
// job in the batch is submitted in order, and the response carries one
// item per job with the HTTP status the same submission would have
// received on POST /v1/jobs. Partial failure is per-item — the response
// itself is 200 whenever the batch body parses, so a bulk submitter
// never has to guess which jobs were accepted.
func (s *Server) submitBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchSubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 256<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid batch body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch carries no jobs")
		return
	}
	resp := api.BatchSubmitResponse{Items: make([]api.BatchSubmitItem, len(req.Jobs))}
	for i := range req.Jobs {
		info, err := s.backend.SubmitCtx(r.Context(), req.Jobs[i])
		item := &resp.Items[i]
		switch {
		case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrShuttingDown):
			item.Error, item.Status = err.Error(), http.StatusServiceUnavailable
		case err != nil:
			item.Error, item.Status = err.Error(), http.StatusBadRequest
		default:
			item.Status = http.StatusAccepted
			if info.State == api.StateDone { // answered from the result cache
				item.Status = http.StatusOK
			}
			cp := info
			item.Info = &cp
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// status serves a job's status document, long-polling when the request
// carries ?wait= (see the package documentation).
func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if !q.Has("wait") {
		info, err := s.backend.Info(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, info)
		return
	}
	wait, err := time.ParseDuration(q.Get("wait"))
	if err != nil || wait < 0 {
		writeError(w, http.StatusBadRequest, "invalid wait %q: want a non-negative Go duration", q.Get("wait"))
		return
	}
	state := q.Get("state")
	switch state {
	case api.StateQueued, api.StateRunning, api.StateDone, api.StateFailed, api.StateCancelled:
	default:
		writeError(w, http.StatusBadRequest, "invalid state %q: want the job state last seen", state)
		return
	}
	info, err := s.backend.WaitInfo(r.Context(), r.PathValue("id"), state, min(wait, maxStatusWait))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	res, err := s.backend.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		writeError(w, http.StatusNotFound, "%v", err)
		return
	case errors.Is(err, jobs.ErrNotDone):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.backend.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// checkpoint serves a job's latest resumable checkpoint — the handoff
// document a coordinator resubmits (SubmitRequest.Checkpoint) to resume
// the job on another worker. 404 both for unknown jobs and for jobs that
// have not exported one.
func checkpoint(b checkpointer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		doc, err := b.Checkpoint(r.PathValue("id"))
		switch {
		case errors.Is(err, jobs.ErrUnknownJob), errors.Is(err, jobs.ErrNoCheckpoint):
			writeError(w, http.StatusNotFound, "%v", err)
			return
		case err != nil:
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, doc)
	}
}

// events streams a job's progress as server-sent events: the buffered
// history first, then live events until the job ends or the client goes
// away. Terminal jobs get their full history and an immediate close.
// ?from=N skips the first N buffered events, resuming a dropped stream.
func events(b subscriber) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		from := 0
		if q := r.URL.Query().Get("from"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, "invalid from index %q", q)
				return
			}
			from = n
		}
		ch, detach, err := b.SubscribeFrom(r.PathValue("id"), from)
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		defer detach()
		flusher, ok := w.(http.Flusher)
		if !ok {
			writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		flusher.Flush()

		ctx := r.Context()
		for {
			select {
			case <-ctx.Done():
				return
			case e, open := <-ch:
				if !open {
					return
				}
				data, err := json.Marshal(e)
				if err != nil {
					continue
				}
				if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Kind, data); err != nil {
					return
				}
				flusher.Flush()
			}
		}
	}
}

// islandPost files an island-exchange packet from a cooperating matchd
// node on the local board, where the islands of the shared session wait
// for it. Malformed packets and count mismatches are 400s (the peer will
// not succeed by retrying); an accepted packet is a 204.
func islandPost(b islandHost) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req island.PostRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid packet body: %v", err)
			return
		}
		if err := b.Board().Post(r.PathValue("session"), req.Count, req.Packet); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// islandStatus reports an island session's exchange progress.
func islandStatus(b islandHost) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st, ok := b.Board().Status(r.PathValue("session"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown island session %q", r.PathValue("session"))
			return
		}
		writeJSON(w, http.StatusOK, st)
	}
}

// clusterStatus serves the coordinator's topology/routing document.
func clusterStatus(b clusterHost) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, b.Status())
	}
}

// clusterDrain hands a worker's in-flight solves off to the survivors
// and stops routing to it until it answers health probes again. The
// body names the worker ({"worker": "http://..."}).
func clusterDrain(b clusterHost) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req api.ClusterDrainRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid drain body: %v", err)
			return
		}
		if err := b.DrainWorker(req.Worker); err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, b.Status())
	}
}

// healthz is the liveness probe: the process is up and serving. It stays
// 200 even when the daemon cannot accept work — that is readiness
// (/readyz) — and flips to 503 only during shutdown, when the listener
// is about to go away.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	if s.backend.Closed() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "shutting down"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyz is the readiness probe: 200 with the individual check results
// while the daemon can take work (a worker: queue accepting, checkpoint
// dir writable, island board reachable; a coordinator: a live worker,
// journal dir writable), 503 with the failing checks
// otherwise — load balancers should stop routing, not restart.
func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	ready, checks := s.backend.Readiness()
	doc := api.ReadyStatus{Status: "ready", Checks: checks}
	status := http.StatusOK
	if !ready {
		doc.Status = "unready"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, doc)
}

// traces lists the tracer's retained traces, most recent first.
// ?limit=N bounds the listing (default 100).
func (s *Server) traces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusOK, []api.TraceSummary{})
		return
	}
	limit := 100
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid limit %q", q)
			return
		}
		limit = n
	}
	sums := s.tracer.Traces(limit)
	out := make([]api.TraceSummary, len(sums))
	for i, g := range sums {
		out[i] = api.TraceSummary(g)
	}
	writeJSON(w, http.StatusOK, out)
}

// traceByID serves one trace's retained spans as a parent/child tree.
func (s *Server) traceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	spans := s.tracer.Trace(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "unknown trace %q", id)
		return
	}
	writeJSON(w, http.StatusOK, buildTraceDoc(id, spans))
}

// buildTraceDoc assembles flat span records into nested trees. A span
// whose parent is missing from the set (it lives on another daemon, was
// evicted, or is still open) becomes a root. Siblings sort by start
// time.
func buildTraceDoc(traceID string, spans []telemetry.SpanData) api.TraceDoc {
	index := make(map[string]int, len(spans))
	for i, sd := range spans {
		index[sd.SpanID] = i
	}
	children := make(map[string][]int)
	var roots []int
	for i, sd := range spans {
		if _, ok := index[sd.ParentID]; ok && sd.ParentID != sd.SpanID {
			children[sd.ParentID] = append(children[sd.ParentID], i)
		} else {
			roots = append(roots, i)
		}
	}
	visited := make(map[int]bool, len(spans))
	var convert func(i int) api.Span
	convert = func(i int) api.Span {
		visited[i] = true
		sd := spans[i]
		out := api.Span{
			TraceID:       sd.TraceID,
			SpanID:        sd.SpanID,
			ParentID:      sd.ParentID,
			Name:          sd.Name,
			Node:          sd.Node,
			Start:         sd.Start,
			DurationNs:    sd.DurationNs,
			Status:        sd.Status,
			Attrs:         sd.Attrs,
			DroppedEvents: sd.DroppedEvents,
		}
		if len(sd.Events) > 0 {
			out.Events = make([]api.SpanEvent, len(sd.Events))
			for k, ev := range sd.Events {
				out.Events[k] = api.SpanEvent(ev)
			}
		}
		kids := children[sd.SpanID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		for _, c := range kids {
			if !visited[c] { // guards against malformed parent cycles
				out.Children = append(out.Children, convert(c))
			}
		}
		return out
	}
	doc := api.TraceDoc{TraceID: traceID, SpanCount: len(spans)}
	sort.Slice(roots, func(a, b int) bool { return spans[roots[a]].Start.Before(spans[roots[b]].Start) })
	for _, i := range roots {
		if !visited[i] {
			doc.Spans = append(doc.Spans, convert(i))
		}
	}
	return doc
}

// metrics renders the backend's telemetry registry — service gauges and
// counters, solver internals, and the HTTP RED series — in the Prometheus
// text exposition format (zero-dependency; see internal/telemetry). A
// scraper that negotiates `Accept: application/openmetrics-text` (or
// passes ?exemplars=1) gets the OpenMetrics flavour, whose histogram
// buckets carry trace-ID exemplars linking metrics to /v1/traces.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") ||
		r.URL.Query().Get("exemplars") == "1" {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.backend.Registry().WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_ = s.backend.Registry().WritePrometheus(w)
}
