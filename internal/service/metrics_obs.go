// Metric wiring for the task runtime. Every series the service exports
// is registered here (and by the result cache and the journal in
// internal/store), at dispatcher construction, with fixed label
// values — so the /metrics series set is deterministic and label
// cardinality is bounded by the registered kinds, priority classes, and
// status vocabulary, never by runtime input (task IDs and spec hashes
// are not labels).
//
// The handles split into two groups:
//
//   - always-on: the queue/cache/journal gauges and counters that
//     /healthz reads — these replace the bespoke counter plumbing the
//     health endpoint used to aggregate, so there is one source of
//     truth. Their cost matches the plain atomics they replaced.
//   - gated: the per-event counters and latency histograms added purely
//     for /metrics. Config.Uninstrumented leaves these nil (every obs
//     recording method is a nil-receiver no-op), which is what the
//     instrumentation-overhead benchmark measures against.
package service

import (
	"errors"
	"time"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/obs"
)

// Histogram bucket layouts, chosen around the observed scales: a run is
// sub-millisecond to seconds, a queue wait under load reaches minutes,
// an in-process HTTP round trip is microseconds to seconds.
var (
	queueWaitBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30, 60, 300}
	taskDurBuckets   = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}
	runDurBuckets    = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2, 10}
	httpDurBuckets   = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30}
	mlBatchBuckets   = []float64{1, 2, 4, 8, 16, 32}
	mlInferBuckets   = []float64{5e-05, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.025}
)

// terminalStatuses is the label vocabulary of the finished-tasks
// counter.
var terminalStatuses = []Status{StatusDone, StatusFailed, StatusCanceled}

// priorityClasses is the label vocabulary of the per-class series.
var priorityClasses = []PriorityClass{PriorityInteractive, PriorityBulk}

// dispatcherMetrics holds the dispatcher's metric handles, keyed the
// way the recording sites look them up: by the kind's plural route
// segment (the same key /healthz uses) and by priority class.
type dispatcherMetrics struct {
	reg *obs.Registry

	// Always-on: the queue backlog gauges QueueStats (and through it
	// /healthz) is rebuilt from.
	queueKind  map[string]*obs.Gauge
	queueClass map[PriorityClass]*obs.Gauge

	// Gated: nil under Config.Uninstrumented.
	submitted       map[string]*obs.Counter
	finished        map[string]map[Status]*obs.Counter
	queueWait       map[string]map[PriorityClass]*obs.Histogram
	taskDur         map[string]*obs.Histogram
	runDur          *obs.Histogram
	runsOK          *obs.Counter
	runsFailed      *obs.Counter
	runsPanic       *obs.Counter
	runRetries      *obs.Counter
	taskPanics      *obs.Counter
	agingPromotions *obs.Counter
	cancelQueued    *obs.Counter
	cancelRunning   *obs.Counter
	mlBatch         *obs.Histogram
	mlInfer         *obs.Histogram
}

func newDispatcherMetrics(reg *obs.Registry, uninstrumented bool) *dispatcherMetrics {
	m := &dispatcherMetrics{
		reg:        reg,
		queueKind:  make(map[string]*obs.Gauge, len(taskKinds)),
		queueClass: make(map[PriorityClass]*obs.Gauge, len(priorityClasses)),
	}
	for _, k := range taskKinds {
		m.queueKind[k.Plural] = reg.Gauge("adasim_queue_depth",
			"Queued tasks by kind.", obs.L("kind", k.Plural))
	}
	for _, class := range priorityClasses {
		m.queueClass[class] = reg.Gauge("adasim_queue_class_depth",
			"Queued tasks by priority class.", obs.L("class", string(class)))
	}
	if uninstrumented {
		return m
	}
	m.submitted = make(map[string]*obs.Counter, len(taskKinds))
	m.finished = make(map[string]map[Status]*obs.Counter, len(taskKinds))
	m.queueWait = make(map[string]map[PriorityClass]*obs.Histogram, len(taskKinds))
	m.taskDur = make(map[string]*obs.Histogram, len(taskKinds))
	for _, k := range taskKinds {
		m.submitted[k.Plural] = reg.Counter("adasim_tasks_submitted_total",
			"Accepted task submissions by kind (journal-recovered tasks included).",
			obs.L("kind", k.Plural))
		byStatus := make(map[Status]*obs.Counter, len(terminalStatuses))
		for _, st := range terminalStatuses {
			byStatus[st] = reg.Counter("adasim_tasks_finished_total",
				"Tasks reaching a terminal state, by kind and status.",
				obs.L("kind", k.Plural), obs.L("status", string(st)))
		}
		m.finished[k.Plural] = byStatus
		byClass := make(map[PriorityClass]*obs.Histogram, len(priorityClasses))
		for _, class := range priorityClasses {
			byClass[class] = reg.Histogram("adasim_task_queue_wait_seconds",
				"Time from accepted submission to dispatch, by kind and priority class.",
				queueWaitBuckets, obs.L("kind", k.Plural), obs.L("class", string(class)))
		}
		m.queueWait[k.Plural] = byClass
		m.taskDur[k.Plural] = reg.Histogram("adasim_task_duration_seconds",
			"Task execution time (dispatch to terminal state), by kind.",
			taskDurBuckets, obs.L("kind", k.Plural))
	}
	m.runDur = reg.Histogram("adasim_run_duration_seconds",
		"Single-run execution time in the run pool, retries included.", runDurBuckets)
	m.runsOK = reg.Counter("adasim_runs_total", "Run-pool run outcomes.", obs.L("outcome", "ok"))
	m.runsFailed = reg.Counter("adasim_runs_total", "Run-pool run outcomes.", obs.L("outcome", "failed"))
	m.runsPanic = reg.Counter("adasim_runs_total", "Run-pool run outcomes.", obs.L("outcome", "panic"))
	m.runRetries = reg.Counter("adasim_run_retries_total",
		"Transient run failures retried with backoff.")
	m.taskPanics = reg.Counter("adasim_task_panics_total",
		"Kind-level Run panics isolated to their task.")
	m.agingPromotions = reg.Counter("adasim_aging_promotions_total",
		"Bulk tasks promoted by the aging rule: their runs take freed runners ahead of waiting interactive runs.")
	m.cancelQueued = reg.Counter("adasim_cancellations_total",
		"Accepted cancellation requests by task phase.", obs.L("phase", "queued"))
	m.cancelRunning = reg.Counter("adasim_cancellations_total",
		"Accepted cancellation requests by task phase.", obs.L("phase", "running"))
	m.mlBatch = reg.Histogram("adasim_ml_batch_size",
		"Sequences fused per batched ML inference in the run pool.", mlBatchBuckets)
	m.mlInfer = reg.Histogram("adasim_ml_infer_seconds",
		"Batched ML inference kernel time in the run pool.", mlInferBuckets)
	return m
}

// poolOptions wires the run pool to the run and ML series. They are in
// the gated group, so under Config.Uninstrumented the pool gets no
// observers and never reads the clock per run.
func (m *dispatcherMetrics) poolOptions(retries int, run func(*experiments.Runner, core.Options) (*core.Result, error)) experiments.PoolOptions {
	opts := experiments.PoolOptions{Retries: retries, Run: run}
	if m.runDur == nil {
		return opts
	}
	opts.Observe = func(elapsed time.Duration, attempts int, err error) {
		m.runDur.Observe(elapsed.Seconds())
		m.runRetries.Add(uint64(attempts - 1))
		switch {
		case err == nil:
			m.runsOK.Inc()
		case errors.Is(err, experiments.ErrRunPanic):
			m.runsPanic.Inc()
		default:
			m.runsFailed.Inc()
		}
	}
	opts.MLObserve = func(batch int, elapsed time.Duration) {
		m.mlBatch.Observe(float64(batch))
		m.mlInfer.Observe(elapsed.Seconds())
	}
	return opts
}

// queueAdd moves the backlog gauges when a task enters (+1) or leaves
// (-1) the queue. Callers hold d.mu, so gauge state tracks queue state.
func (m *dispatcherMetrics) queueAdd(t *task, delta int64) {
	m.queueKind[t.kind.Plural].Add(delta)
	m.queueClass[queueClass(t.priority)].Add(delta)
}

// queueClass maps a task priority to its queue class (the taskQueue
// treats everything non-bulk as interactive).
func queueClass(p PriorityClass) PriorityClass {
	if p == PriorityBulk {
		return PriorityBulk
	}
	return PriorityInteractive
}

// registerRecoveryMetrics publishes the boot-time replay summary as
// gauges — set once, so a scrape can tell what the last boot recovered.
func registerRecoveryMetrics(reg *obs.Registry, s *RecoveryStats) {
	help := "Journal replay summary of the last boot, by replay result."
	reg.Gauge("adasim_recovery_tasks", help, obs.L("result", "recovered")).Set(int64(s.RecoveredTasks))
	reg.Gauge("adasim_recovery_tasks", help, obs.L("result", "terminal")).Set(int64(s.TerminalTasks))
	reg.Gauge("adasim_recovery_tasks", help, obs.L("result", "failed_replay")).Set(int64(s.FailedReplays))
	reg.Gauge("adasim_recovery_tasks", help, obs.L("result", "corrupt_record")).Set(int64(s.CorruptRecords))
}

// httpMetrics is the per-route middleware instrumentation: one
// duration histogram per (route, method) and one request counter per
// (route, method, status class), all pre-registered when the route is
// wired. The route label is the mux pattern, never the raw URL path.
type httpMetrics struct {
	dur      *obs.Histogram
	byStatus [5]*obs.Counter // index: status/100 - 1
}

func newHTTPMetrics(reg *obs.Registry, route, method string) *httpMetrics {
	h := &httpMetrics{
		dur: reg.Histogram("adasim_http_request_seconds",
			"HTTP request handling time by route and method.",
			httpDurBuckets, obs.L("route", route), obs.L("method", method)),
	}
	for i, class := range [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
		h.byStatus[i] = reg.Counter("adasim_http_requests_total",
			"HTTP requests by route, method, and status class.",
			obs.L("route", route), obs.L("method", method), obs.L("status", class))
	}
	return h
}

func (h *httpMetrics) observe(status int, seconds float64) {
	h.dur.Observe(seconds)
	i := status/100 - 1
	if i < 0 || i >= len(h.byStatus) {
		return
	}
	h.byStatus[i].Inc()
}
