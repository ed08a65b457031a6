// The unified task runtime: jobs, explorations, and reports are one
// workload shape — a strictly-decoded spec with a canonical content hash,
// executed on the shared run pool against the shared result cache,
// recorded in one map with one retention policy, and served by one
// handler table. A new workload kind is a TaskKind registration, not a
// copy of the record-keeping, pruning, and HTTP plumbing.
package service

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"adasim/internal/experiments"
)

// Executor and Cache are the canonical execution contracts tasks run
// against (see experiments): the dispatcher's run pool and result cache
// implement them, and so do the pool and nil cache the offline CLIs use
// — the engines cannot tell the difference.
type (
	Executor = experiments.Executor
	Cache    = experiments.Cache
)

// Task status values.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// terminal reports whether a status is final (the task's done channel is
// closed and its record is eligible for retention pruning).
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// PriorityClass selects a task's scheduler lane and its runs' standing
// in the run pool: interactive runs take freed runners first, and the
// aging rule (Config.AgeAfter) bounds how many interactive tasks can
// overtake a bulk task, so they cannot starve it.
type PriorityClass string

const (
	// PriorityInteractive is for short, latency-sensitive work (jobs,
	// explorations): its runs take freed runners ahead of bulk runs.
	PriorityInteractive PriorityClass = "interactive"
	// PriorityBulk is for heavy, throughput-oriented work (reports):
	// overtaken by interactive runs until the aging rule promotes it.
	PriorityBulk PriorityClass = "bulk"
)

// ParsePriority resolves a wire priority string. Empty means "use the
// kind's default class".
func ParsePriority(s string) (PriorityClass, error) {
	switch PriorityClass(s) {
	case "", PriorityInteractive, PriorityBulk:
		return PriorityClass(s), nil
	}
	return "", fmt.Errorf("service: unknown priority %q (want %q or %q)",
		s, PriorityInteractive, PriorityBulk)
}

// RetentionClass selects which finished-record cap applies to a kind.
type RetentionClass string

const (
	// RetentionStandard is for light records (runs or probes plus
	// counters): capped by Config.MaxJobRecords.
	RetentionStandard RetentionClass = "standard"
	// RetentionHeavy is for records retaining large rendered results
	// (~0.5 MB for a full report): capped by Config.MaxReportRecords.
	RetentionHeavy RetentionClass = "heavy"
)

// TaskStats are execution-side counters reported by a kind's Run.
type TaskStats struct {
	// Completed is the total unit count (runs or probes), cache-served
	// units included.
	Completed int
	// CacheHits is how many of them the result cache served.
	CacheHits int
}

// TaskEnv is the execution environment the dispatcher hands a task: the
// cancel-aware executor (the run pool, or the worker fleet), the shared
// content-addressed result cache, and the progress sink. Cancellation is
// cooperative and built into Exec — it starts no further run once the
// task is canceled and returns ErrCanceled.
type TaskEnv struct {
	Exec  Executor
	Cache Cache
	// Progress, when non-nil, receives cumulative (completed, cacheHits)
	// counts as units finish. It must be safe for concurrent use.
	Progress func(completed, cacheHits int)
}

// TaskSpec is a decoded, kind-specific specification. Prepare
// normalizes and validates it and returns the executable form; a
// Prepare error is a bad spec (HTTP 400).
type TaskSpec interface {
	Prepare() (PreparedTask, error)
}

// PreparedTask is a normalized, validated, executable task.
type PreparedTask struct {
	// Hash is the canonical content hash of the normalized spec.
	Hash string
	// Total is the planned unit count, or 0 when the kind decides it
	// adaptively (boundary searches).
	Total int
	// Run executes the task on the environment and returns the
	// kind-specific result. On cancellation it returns ErrCanceled
	// (usually surfaced through env.Exec).
	Run func(env TaskEnv) (result any, stats TaskStats, err error)
	// SoleRun, when the plan is exactly one run, names it: its RunKey
	// and result-cache key. The results route uses it to stream the
	// cache's canonical outcome bytes verbatim (see store.ResultCache.Encoded)
	// instead of re-marshaling the decoded outcome; kinds whose results
	// are not a run list leave it nil.
	SoleRun *SoleRunRef
}

// SoleRunRef identifies the single planned run of a one-run task.
type SoleRunRef struct {
	Key      experiments.RunKey
	CacheKey string
}

// TaskKind registers one workload kind with the runtime. Registration is
// the whole integration surface: the dispatcher, server, client, and CLI
// serve every registered kind generically.
type TaskKind struct {
	// Name is the singular kind name ("job"), used in messages and views.
	Name string
	// Plural is the route segment ("jobs"): POST /v1/tasks/{Plural}.
	Plural string
	// Prefix starts the kind's task IDs ("j" -> j000001-1a2b3c4d).
	Prefix string
	// Class selects the finished-record retention cap.
	Class RetentionClass
	// Priority is the kind's default scheduling class; a submission may
	// override it with the ?priority= query parameter.
	Priority PriorityClass
	// Decode strictly parses a wire spec (unknown fields rejected).
	Decode func(b []byte) (TaskSpec, error)
	// Encode marshals a decoded spec back to its wire JSON — the inverse
	// of Decode for every spec Decode accepts. The task journal stores
	// Encode's output so a replayed submission round-trips through the
	// same strict Decode the HTTP surface uses; it is only invoked when
	// journaling is enabled.
	Encode func(spec TaskSpec) ([]byte, error)
	// Wire shapes a finished task's result for the results endpoint. It
	// must be a pure function of (hash, result) so equal specs serve
	// byte-identical responses.
	Wire func(hash string, result any) any
}

// The kind registry. Kinds register at init time (one per file:
// jobs.go, explorations.go, reports.go); the order is the registration
// order.
var taskKinds []*TaskKind

// RegisterKind adds a workload kind to the runtime. It panics on
// duplicate names, plurals, or prefixes — registration is init-time
// wiring, not runtime input.
func RegisterKind(k *TaskKind) *TaskKind {
	for _, prev := range taskKinds {
		if prev.Name == k.Name || prev.Plural == k.Plural || prev.Prefix == k.Prefix {
			panic(fmt.Sprintf("service: task kind %q collides with %q", k.Name, prev.Name))
		}
	}
	taskKinds = append(taskKinds, k)
	return k
}

// Kinds returns the registered kinds in registration order.
func Kinds() []*TaskKind { return taskKinds }

// task is the dispatcher-internal record of one unit of queued work, of
// any kind. Mutable fields are guarded by the owning Dispatcher's mu;
// cancel is atomic so executors can poll it between runs without the
// lock.
type task struct {
	id       string
	kind     *TaskKind
	hash     string
	prep     PreparedTask
	priority PriorityClass

	status Status
	// completed/cacheHits are atomic so the per-run Progress callback —
	// the hottest dispatcher path, hit once per simulation run — can
	// advance them without taking the dispatcher lock. They only ever
	// move forward (CAS-max) while the task runs; the finalize path
	// stores the authoritative totals.
	completed   atomic.Int64
	cacheHits   atomic.Int64
	errMsg      string
	submittedAt time.Time
	startedAt   *time.Time
	finishedAt  *time.Time
	result      any           // kind-specific, set once status is done
	done        chan struct{} // closed on done/failed/canceled

	// Monotonic-clock twins of the wall timestamps above. The wall
	// times serve the API but lose Go's monotonic reading through
	// .UTC(), so durations derived from them would jump with clock
	// steps; queue-wait/run-time durations (TaskView, the queue-wait and
	// task-duration histograms) come from these instead. Recovered
	// tasks get their recovery moment, not the pre-crash submission.
	submittedMono time.Time
	startedMono   time.Time
	finishedMono  time.Time

	// Lifecycle timeline (see timeline.go): the ordered event record,
	// the live subscriber channels, the completed-count threshold for
	// the next progress event (atomic: progress callbacks race to cross
	// it and CAS elects the one that appends the event), and its stride
	// (immutable after construction).
	timeline       []timelineEntry
	subs           []chan timelineEntry
	nextProgress   atomic.Int64
	progressStride int

	cancel atomic.Bool // cooperative cancellation request
}

// TaskView is a point-in-time snapshot of a task, shaped for the API.
// It is the one status wire format shared by every kind; TotalRuns is
// omitted for kinds that size themselves adaptively.
type TaskView struct {
	ID            string        `json:"id"`
	Kind          string        `json:"kind"`
	SpecHash      string        `json:"spec_hash"`
	Status        Status        `json:"status"`
	Priority      PriorityClass `json:"priority"`
	TotalRuns     int           `json:"total_runs,omitempty"`
	CompletedRuns int           `json:"completed_runs"`
	CacheHits     int           `json:"cache_hits"`
	// CancelRequested reports a cancellation that the running task has
	// not yet honored (it stops between runs).
	CancelRequested bool       `json:"cancel_requested,omitempty"`
	Error           string     `json:"error,omitempty"`
	SubmittedAt     time.Time  `json:"submitted_at"`
	StartedAt       *time.Time `json:"started_at,omitempty"`
	FinishedAt      *time.Time `json:"finished_at,omitempty"`
	// QueueWaitMillis and RunMillis are monotonic-clock durations
	// (measured, not derived from the wall timestamps above, which lose
	// the monotonic reading): submission→dispatch and dispatch→terminal.
	// They are live — a queued task's wait and a running task's run time
	// grow between polls. For journal-recovered tasks the wait is
	// measured from recovery at boot, not the pre-crash submission.
	QueueWaitMillis float64 `json:"queue_wait_ms,omitempty"`
	RunMillis       float64 `json:"run_ms,omitempty"`
}

// taskQueue holds the queued tasks: one FIFO per priority class, each
// popped by its own scheduler lane.
type taskQueue struct {
	interactive []*task
	bulk        []*task
}

func (q *taskQueue) depth() int { return len(q.interactive) + len(q.bulk) }

// class returns the FIFO of a priority class; everything non-bulk is
// interactive.
func (q *taskQueue) class(p PriorityClass) *[]*task {
	if p == PriorityBulk {
		return &q.bulk
	}
	return &q.interactive
}

func (q *taskQueue) push(t *task) {
	c := q.class(t.priority)
	*c = append(*c, t)
}

// pop returns the oldest queued task of a class, or nil.
func (q *taskQueue) pop(p PriorityClass) *task {
	c := q.class(p)
	if len(*c) == 0 {
		return nil
	}
	t := (*c)[0]
	// Popped slots are cleared: the backing arrays outlive the pops, and
	// must not keep finished (or evicted) records reachable.
	(*c)[0] = nil
	*c = (*c)[1:]
	return t
}

// remove deletes a queued task (cancellation path). It is a no-op if the
// task is not queued.
func (q *taskQueue) remove(t *task) {
	c := q.class(t.priority)
	if i := slices.Index(*c, t); i >= 0 {
		*c = slices.Delete(*c, i, i+1)
	}
}

// QueueStats is the /healthz snapshot of the queue: total depth plus
// per-kind and per-priority-class backlogs.
type QueueStats struct {
	Depth   int            `json:"depth"`
	ByKind  map[string]int `json:"by_kind"`
	ByClass map[string]int `json:"by_class"`
}
