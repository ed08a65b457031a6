package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"time"

	"adasim/internal/experiments"
	"adasim/internal/fleet"
	"adasim/internal/metrics"
	"adasim/internal/scenario"
	"adasim/internal/scengen"
	"adasim/internal/store"
)

// Server exposes the dispatcher over HTTP/JSON. The task routes are
// generic over every registered kind:
//
//	POST   /v1/tasks/{kind}           submit a spec of that kind     -> 202 TaskView
//	GET    /v1/tasks/{id}             task status and progress       -> 200 TaskView
//	GET    /v1/tasks/{id}/results     results of a finished task     -> 200 kind wire format
//	GET    /v1/tasks/{id}/events      lifecycle timeline (JSON/SSE)  -> 200
//	DELETE /v1/tasks/{id}             request cooperative cancel     -> 200 TaskView
//	GET    /v1/scenarios              scenarios + family catalogue   -> 200
//	GET    /healthz                   liveness, queue + cache view   -> 200
//
// Submissions may carry ?priority=interactive|bulk to override the
// kind's default scheduling class. Submission errors map uniformly for
// every kind: queue full -> 429 with Retry-After, draining -> 503, bad
// spec -> 400, all with the {"error": ...} body.
//
// Every POST endpoint requires a JSON body: a request declaring a
// non-JSON Content-Type is rejected with 415 before the body is read,
// and bodies over MaxSpecBytes are rejected with 413.
type Server struct {
	d   *Dispatcher
	mux *http.ServeMux
}

// MaxSpecBytes caps submission bodies. The largest legitimate spec (a
// full report spec with explicit scenario lists) is a few KB; 1 MiB
// leaves orders of magnitude of headroom while keeping a hostile or
// buggy client from ballooning the daemon's heap.
const MaxSpecBytes = 1 << 20

// NewServer wires the routes: one submission route per registered kind
// plus the generic task routes. Every route is wrapped in the metrics
// middleware (request count and duration per route pattern, method, and
// status class — the pattern, never the raw path, is the label, so
// cardinality is the route table).
func NewServer(d *Dispatcher) *Server {
	s := &Server{d: d, mux: http.NewServeMux()}
	for _, k := range Kinds() {
		s.route("POST /v1/tasks/"+k.Plural, requireJSON(s.handleSubmit(k)))
	}
	s.route("GET /v1/tasks/{id}", s.handleTask)
	s.route("GET /v1/tasks/{id}/results", s.handleTaskResults)
	s.route("GET /v1/tasks/{id}/events", s.handleTaskEvents)
	s.route("DELETE /v1/tasks/{id}", s.handleCancel)
	s.route("GET /v1/scenarios", s.handleScenarios)
	s.route("POST /v1/worker/register", requireJSON(s.handleWorkerRegister))
	s.route("POST /v1/worker/lease", requireJSON(s.handleWorkerLease))
	s.route("POST /v1/worker/heartbeat", requireJSON(s.handleWorkerHeartbeat))
	s.route("POST /v1/worker/complete", requireJSON(s.handleWorkerComplete))
	s.route("POST /v1/worker/deregister", requireJSON(s.handleWorkerDeregister))
	s.route("GET /v1/workers", s.handleWorkers)
	s.route("GET /healthz", s.handleHealth)
	s.route("GET /metrics", d.Registry().Handler().ServeHTTP)
	return s
}

// route registers pattern with the metrics middleware wrapped around
// the handler. Patterns are "METHOD /path"; both parts become fixed
// label values on the pre-registered HTTP series. Under
// Config.Uninstrumented the handler is mounted bare.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	if s.d.cfg.Uninstrumented {
		s.mux.HandleFunc(pattern, h)
		return
	}
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		method, path = "", pattern
	}
	hm := newHTTPMetrics(s.d.Registry(), path, method)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		hm.observe(sw.code(), time.Since(start).Seconds())
	})
}

// statusWriter captures the response status for the metrics middleware.
// It passes Flush through — the SSE stream runs behind the middleware
// and must still reach the client incrementally.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// code is the response status, defaulting to 200 when the handler never
// wrote one (implicit OK on an empty response).
func (sw *statusWriter) code() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

// requireJSON rejects POST bodies whose declared Content-Type is not
// JSON with 415 and the standard error body. An absent Content-Type is
// accepted (hand-rolled clients often omit it); anything else must be a
// JSON media type ("application/json", optionally with parameters, or an
// "+json" suffix type).
func requireJSON(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ct := r.Header.Get("Content-Type")
		if ct != "" {
			mt, _, err := mime.ParseMediaType(ct)
			if err != nil || (mt != "application/json" && !strings.HasSuffix(mt, "+json")) {
				writeError(w, http.StatusUnsupportedMediaType,
					fmt.Errorf("unsupported content type %q (want application/json)", ct))
				return
			}
		}
		next(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ResultsResponse is the wire format of a finished job's results. It
// deliberately carries no job ID or timing so that two jobs with the
// same spec produce byte-identical responses.
type ResultsResponse struct {
	SpecHash  string                   `json:"spec_hash"`
	TotalRuns int                      `json:"total_runs"`
	Results   []experiments.RunOutcome `json:"results"`
	Aggregate metrics.Aggregate        `json:"aggregate"`
}

// ScenarioInfo is one entry of the scenario catalogue.
type ScenarioInfo struct {
	ID          int    `json:"id"`
	Name        string `json:"name"`
	Description string `json:"description"`
}

// ScenariosResponse is the scenario catalogue: the six scripted paper
// scenarios with the default initial gaps, plus the parametric scenario
// families and their typed parameter spaces.
type ScenariosResponse struct {
	Scenarios   []ScenarioInfo    `json:"scenarios"`
	DefaultGaps []float64         `json:"default_gaps"`
	Families    []*scengen.Family `json:"families"`
}

// HealthResponse reports liveness plus a queue, pool, and cache
// snapshot. The per-kind count maps (Jobs, Explorations, Reports)
// repeat entries of the generic Tasks map.
type HealthResponse struct {
	Status       string                    `json:"status"` // "ok" or "draining"
	Workers      int                       `json:"workers"`
	QueueDepth   int                       `json:"queue_depth"`
	Queue        QueueStats                `json:"queue"`
	Tasks        map[string]map[Status]int `json:"tasks"`
	Jobs         map[Status]int            `json:"jobs"`
	Explorations map[Status]int            `json:"explorations"`
	Reports      map[Status]int            `json:"reports"`
	Cache        store.CacheStats          `json:"cache"`
	// RemoteWorkers summarizes the attached worker fleet: connected
	// workers, live leases, and the lease/re-queue counters.
	RemoteWorkers fleet.WorkerFleetStats `json:"remote_workers"`
	// Journal and Recovery are present only when the daemon runs with a
	// task journal (-journal-dir): the journal's live-set and error
	// counters, and what the last boot replayed.
	Journal  *store.JournalStats `json:"journal,omitempty"`
	Recovery *RecoveryStats      `json:"recovery,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// handleSubmit is the one submission handler every kind shares: strict
// decode, optional priority override, admission, and the uniform error
// mapping.
func (s *Server) handleSubmit(k *TaskKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, MaxSpecBytes)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("%s spec exceeds %d bytes", k.Name, MaxSpecBytes))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading %s spec: %w", k.Name, err))
			return
		}
		spec, err := k.Decode(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding %s spec: %w", k.Name, err))
			return
		}
		priority, err := ParsePriority(r.URL.Query().Get("priority"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		view, err := s.d.SubmitTask(k, spec, priority)
		writeSubmitOutcome(w, view, err)
	}
}

// writeSubmitOutcome maps admission results identically for every
// submit endpoint: 202 on success; queue full -> 429 with a Retry-After
// hint; draining or journal failure -> 503; anything else (validation)
// -> 400. A journal write failure is 503, not 400: the spec was fine,
// the service could not durably accept it — a retryable condition.
func writeSubmitOutcome(w http.ResponseWriter, view TaskView, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrJournal):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, view)
	}
}

// unknownTask is the 404 error body of every /v1/tasks/{id} route.
func unknownTask(id string) error { return fmt.Errorf("unknown task %q", id) }

func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.d.Task(id)
	if !ok {
		writeError(w, http.StatusNotFound, unknownTask(id))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleTaskResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	result, hash, kind, sole, ok, err := s.d.taskResult(id)
	if !ok {
		writeError(w, http.StatusNotFound, unknownTask(id))
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	if sole != nil && s.serveSoleRun(w, hash, sole, result) {
		return
	}
	writeJSON(w, http.StatusOK, kind.Wire(hash, result))
}

// rawRunOutcome mirrors experiments.RunOutcome's wire shape but splices
// the cache's canonical outcome bytes in verbatim instead of
// re-marshaling the decoded struct. The bytes came from json.Marshal
// (already compact, already HTML-escaped), so the RawMessage
// pass-through is byte-identical to the marshal path — pinned by
// TestSoleRunServeByteIdentity.
type rawRunOutcome struct {
	Key     experiments.RunKey `json:"key"`
	Outcome json.RawMessage    `json:"outcome"`
}

// rawResultsResponse is ResultsResponse with the run outcome spliced in
// raw. Field order and tags must match ResultsResponse exactly.
type rawResultsResponse struct {
	SpecHash  string            `json:"spec_hash"`
	TotalRuns int               `json:"total_runs"`
	Results   []rawRunOutcome   `json:"results"`
	Aggregate metrics.Aggregate `json:"aggregate"`
}

// serveSoleRun is the zero-copy warm path for single-run results: when
// the run's canonical bytes are resident in the result cache, the
// response envelope is assembled around them and streamed with io.Copy
// — the outcome (the bulk of the body) is never re-marshaled. Returns
// false to fall back to the ordinary Wire+writeJSON path (bytes not
// resident, or an unexpected result shape).
func (s *Server) serveSoleRun(w http.ResponseWriter, hash string, sole *SoleRunRef, result any) bool {
	runs, isRuns := result.([]experiments.RunOutcome)
	if !isRuns || len(runs) != 1 {
		return false
	}
	enc, ok := s.d.Cache().Encoded(sole.CacheKey)
	if !ok {
		return false
	}
	b, err := json.Marshal(rawResultsResponse{
		SpecHash:  hash,
		TotalRuns: 1,
		Results:   []rawRunOutcome{{Key: runs[0].Key, Outcome: enc}},
		Aggregate: AggregateFor(runs),
	})
	if err != nil {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	io.Copy(w, bytes.NewReader(append(b, '\n')))
	return true
}

// handleTaskEvents serves a task's lifecycle timeline. The default
// response is the full ordered event list as JSON; with Accept:
// text/event-stream it switches to a live SSE stream — the recorded
// events first, then each new one as it happens, closing right after
// the terminal event. Events may be dropped on a stalled consumer
// (see timelineSubBuffer); the terminal close is never lost.
func (s *Server) handleTaskEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if wantsEventStream(r) {
		s.streamTaskEvents(w, r, id)
		return
	}
	events, ok := s.d.TaskEvents(id)
	if !ok {
		writeError(w, http.StatusNotFound, unknownTask(id))
		return
	}
	writeJSON(w, http.StatusOK, TaskEventsResponse{ID: id, Events: events})
}

// wantsEventStream reports whether the request negotiated SSE.
func wantsEventStream(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err == nil && mt == "text/event-stream" {
			return true
		}
	}
	return false
}

func (s *Server) streamTaskEvents(w http.ResponseWriter, r *http.Request, id string) {
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusNotAcceptable, fmt.Errorf("event stream unsupported on this connection"))
		return
	}
	past, live, render, stop, ok := s.d.WatchTask(id)
	if !ok {
		writeError(w, http.StatusNotFound, unknownTask(id))
		return
	}
	defer stop()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	for _, ev := range past {
		if writeSSEEvent(w, ev) != nil {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case e, open := <-live:
			if !open {
				return // terminal event delivered; stream complete
			}
			if writeSSEEvent(w, render(e)) != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSEEvent emits one SSE frame: the event name plus the
// TimelineEvent JSON as data.
func writeSSEEvent(w io.Writer, ev TimelineEvent) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Event, b)
	return err
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, err := s.d.Cancel(id)
	switch {
	case errors.Is(err, ErrUnknownTask):
		writeError(w, http.StatusNotFound, unknownTask(id))
	case errors.Is(err, ErrTaskTerminal):
		writeError(w, http.StatusConflict,
			fmt.Errorf("%s %s is already %s", view.Kind, view.ID, view.Status))
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, view)
	}
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	resp := ScenariosResponse{DefaultGaps: scenario.InitialGaps(), Families: scengen.Families()}
	for _, id := range scenario.All() {
		resp.Scenarios = append(resp.Scenarios, ScenarioInfo{
			ID:          int(id),
			Name:        id.String(),
			Description: id.Description(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.d.Draining() {
		status = "draining"
	}
	tasks := s.d.TaskCounts()
	queue := s.d.QueueStats()
	resp := HealthResponse{
		Status:        status,
		Workers:       s.d.Workers(),
		QueueDepth:    queue.Depth,
		Queue:         queue,
		Tasks:         tasks,
		Jobs:          tasks[JobKind.Plural],
		Explorations:  tasks[ExplorationKind.Plural],
		Reports:       tasks[ReportKind.Plural],
		Cache:         s.d.Cache().Stats(),
		RemoteWorkers: s.d.hub.FleetStats(),
	}
	if js, ok := s.d.JournalStats(); ok {
		resp.Journal = &js
		resp.Recovery = s.d.Recovery()
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeJSON encodes v with a trailing newline. Marshal happens before
// the header is written so an encoding failure can still produce a 500.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, code int, err error) {
	b, merr := json.Marshal(errorResponse{Error: err.Error()})
	if merr != nil {
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}
