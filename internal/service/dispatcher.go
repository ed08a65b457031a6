package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/fleet"
	"adasim/internal/metrics"
	"adasim/internal/obs"
	"adasim/internal/store"
)

// Sentinel errors surfaced by the task runtime.
var (
	// ErrQueueFull means the bounded task queue is at capacity.
	ErrQueueFull = errors.New("service: task queue full")
	// ErrDraining means the dispatcher no longer accepts tasks.
	ErrDraining = errors.New("service: dispatcher draining")
	// ErrCanceled means a task stopped because its cancellation was
	// requested; partial results are discarded.
	ErrCanceled = errors.New("service: task canceled")
	// ErrUnknownTask means no record exists for the requested task ID.
	ErrUnknownTask = errors.New("service: unknown task")
	// ErrTaskTerminal means the task already reached a terminal state,
	// so a cancellation request has nothing to stop.
	ErrTaskTerminal = errors.New("service: task already terminal")
	// ErrJournal means the write-ahead journal could not record the
	// submission; the task was NOT accepted, because its durability
	// cannot be promised. Transient (the client may retry).
	ErrJournal = errors.New("service: task journal write failed")
	// ErrRunPanic marks a run that panicked in the run pool. It fails
	// only the owning task; the daemon and its other tasks keep going.
	ErrRunPanic = experiments.ErrRunPanic
	// ErrTaskPanic marks a task whose kind-level Run (the engine around
	// the runs, not a run itself) panicked; isolation is the same.
	ErrTaskPanic = errors.New("service: task panicked")
)

// Config sizes the dispatcher.
type Config struct {
	// Workers is the run pool's parallelism: how many runs execute at
	// once, each on a long-lived platform. Zero means GOMAXPROCS.
	Workers int
	// QueueSize bounds the task queue (all kinds and priority classes
	// combined). Zero means 64.
	QueueSize int
	// CacheEntries bounds the in-memory result cache. Zero means 4096.
	CacheEntries int
	// CacheDir, when non-empty, enables the on-disk result store.
	CacheDir string
	// CacheMaxBytes, when positive, bounds the on-disk segment store:
	// past the budget the coldest sealed segments are GC'd whole. Zero
	// means unbounded.
	CacheMaxBytes int64
	// MaxJobRecords bounds how many finished standard-retention task
	// records (jobs and explorations — runs/probes plus counters) are
	// retained for status/results queries. The oldest finished records
	// are evicted first; queued and running tasks are never evicted.
	// Zero means 4096.
	MaxJobRecords int
	// MaxReportRecords bounds finished heavy-retention records
	// separately: a report retains its full rendered artifacts (~0.5 MB
	// for a full-spec report), an order of magnitude heavier than a job
	// or exploration record, so its cap is much smaller. Zero means 256.
	MaxReportRecords int
	// AgeAfter is the aging rule: a running bulk task with runs waiting
	// for a runner may be overtaken by this many interactive task starts;
	// the next one promotes it, and its runs then take freed runners
	// first until it finishes. Zero means 4.
	AgeAfter int
	// JournalDir, when non-empty, enables the write-ahead task journal:
	// a submission is appended (and fsynced) before it is queued, so an
	// accepted task survives a crash, and a new dispatcher on the same
	// directory re-queues every non-terminal task in its original
	// submission order. Pair it with CacheDir so the replayed work is
	// mostly served from the content-addressed disk cache.
	JournalDir string
	// RunRetries is how many times the run pool retries a failed run
	// (with capped exponential backoff) before surfacing the failure to
	// the owning task. Panics are never retried. Zero means 2; negative
	// disables retries.
	RunRetries int
	// LeaseTTL is the worker-lease time to live: a leased batch neither
	// completed nor heartbeat-extended within it is re-queued, and a
	// worker silent for twice it is pruned. Zero means 10s.
	LeaseTTL time.Duration
	// WorkerBatch is how many runs one worker lease carries. Batch
	// splitting is deterministic over run indexes, so this affects
	// scheduling only, never results. Zero means 16.
	WorkerBatch int
	// Metrics is the observability registry every layer records into
	// (queue, cache, journal, HTTP); the daemon serves it at /metrics.
	// Nil means a private registry — everything still records, it is
	// just not shared with anything else.
	Metrics *obs.Registry
	// Logger receives the dispatcher's structured log records. Nil
	// means discard.
	Logger *slog.Logger
	// Uninstrumented disables the gated metric group (the per-event
	// counters and latency histograms that exist purely for /metrics) —
	// the always-on gauges /healthz reads stay live. It exists for the
	// instrumentation-overhead benchmark baseline; production callers
	// leave it false.
	Uninstrumented bool
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.MaxJobRecords <= 0 {
		c.MaxJobRecords = 4096
	}
	if c.MaxReportRecords <= 0 {
		c.MaxReportRecords = 256
	}
	if c.AgeAfter <= 0 {
		c.AgeAfter = 4
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.WorkerBatch <= 0 {
		c.WorkerBatch = 16
	}
	if c.RunRetries == 0 {
		c.RunRetries = 2
	} else if c.RunRetries < 0 {
		c.RunRetries = 0
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// retentionCap maps a retention class to its configured record cap.
func (c Config) retentionCap(class RetentionClass) int {
	if class == RetentionHeavy {
		return c.MaxReportRecords
	}
	return c.MaxJobRecords
}

// Dispatcher owns the task queue, the run pool, and the result cache.
//
// Tasks of every registered kind are admitted into one bounded queue,
// FIFO per priority class, and each class's scheduler lane executes its
// tasks one at a time. Each task's runs fan out over the shared
// experiments.Pool, whose Runners keep long-lived core.Platforms
// serviced via Reset, so the steady-state cost of a run is the closed
// loop itself. The pool hands a freed Runner to interactive runs before
// bulk ones, and the aging rule promotes an overtaken bulk task. Results
// land in slots indexed by the canonical run order, which keeps task
// output independent of pool size and task interleaving.
type Dispatcher struct {
	cfg   Config
	cache *store.ResultCache
	m     *dispatcherMetrics
	log   *slog.Logger

	// pool is the local run engine: retries, panic isolation, ML
	// batching, and the run metrics live in it.
	pool *experiments.Pool
	// hub is the remote-worker lease table; always present (a hub with
	// no registered workers is inert and every task runs on the pool).
	hub      *fleet.Hub
	journal  *store.Journal
	recovery *RecoveryStats

	mu       sync.Mutex
	lane     map[PriorityClass]*sync.Cond // signals queue activity to each lane
	tasks    map[string]*task
	retained map[RetentionClass]*classRecords
	queue    taskQueue
	// The aging rule's state: the claim of the bulk lane's latest task,
	// and the interactive starts counted against it.
	bulkClaim *experiments.Claim
	overtakes int
	seq       int

	draining  bool
	halted    atomic.Bool // crash simulation: suppress journal writes
	lanes     sync.WaitGroup
	schedDone chan struct{} // closed once both lanes have returned
}

// RecoveryStats summarizes the journal replay performed at boot.
type RecoveryStats struct {
	// Segments is how many journal segment files were scanned.
	Segments int `json:"segments"`
	// RecoveredTasks is how many non-terminal submissions were re-queued.
	RecoveredTasks int `json:"recovered_tasks"`
	// TerminalTasks is how many journaled submissions were already
	// terminal and therefore skipped.
	TerminalTasks int `json:"terminal_tasks"`
	// FailedReplays is how many live records failed to decode or prepare
	// (a journal written by an incompatible version); each becomes a
	// terminal failed task instead of poisoning recovery.
	FailedReplays int `json:"failed_replays"`
	// CorruptRecords counts torn segment tails (the residue of a crash
	// mid-append), records failing their CRC, and records that do not
	// decode; they are skipped, never fatal.
	CorruptRecords int `json:"corrupt_records"`
}

// NewDispatcher replays the journal (when configured), then starts the
// scheduler lanes — recovered tasks are queued before anything
// submitted after boot.
func NewDispatcher(cfg Config) (*Dispatcher, error) { return newDispatcher(cfg, nil) }

// newDispatcher is NewDispatcher with an optional run-function override
// for the pool (nil means the real Runner.Do), the injection point of
// the chaos tests.
func newDispatcher(cfg Config, run func(*experiments.Runner, core.Options) (*core.Result, error)) (*Dispatcher, error) {
	cfg = cfg.normalized()
	cache, err := store.NewResultCache(cfg.CacheEntries, cfg.CacheDir, cfg.CacheMaxBytes, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	d := &Dispatcher{
		cfg:       cfg,
		cache:     cache,
		m:         newDispatcherMetrics(cfg.Metrics, cfg.Uninstrumented),
		log:       cfg.Logger,
		tasks:     make(map[string]*task),
		retained:  map[RetentionClass]*classRecords{RetentionStandard: {}, RetentionHeavy: {}},
		schedDone: make(chan struct{}),
	}
	d.lane = map[PriorityClass]*sync.Cond{}
	for _, class := range priorityClasses {
		d.lane[class] = sync.NewCond(&d.mu)
	}
	d.pool = experiments.NewPoolWith(cfg.Workers, d.m.poolOptions(cfg.RunRetries, run))
	d.hub = fleet.NewHub(cache, cfg.Metrics, cfg.Logger, cfg.LeaseTTL, cfg.WorkerBatch)
	if cfg.JournalDir != "" {
		j, recs, stats, err := store.OpenJournal(cfg.JournalDir, 0, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		d.journal = j
		d.recoverTasks(recs, stats)
	}
	d.lanes.Add(len(priorityClasses))
	for _, class := range priorityClasses {
		go d.scheduler(class)
	}
	go func() {
		d.lanes.Wait()
		close(d.schedDone)
	}()
	return d, nil
}

// recoverTasks re-queues the journal's live submissions in their
// original submission order within each class. It runs before the
// scheduler lanes start. A record that no longer decodes or prepares
// becomes a terminal failed task (visible over the API, journaled
// terminal so compaction drops it) rather than aborting recovery.
func (d *Dispatcher) recoverTasks(recs []store.JournalRecord, stats store.ReplayStats) {
	byPlural := make(map[string]*TaskKind, len(taskKinds))
	for _, k := range taskKinds {
		byPlural[k.Plural] = k
	}
	summary := &RecoveryStats{
		Segments:       stats.Segments,
		TerminalTasks:  stats.TerminalTasks,
		CorruptRecords: stats.CorruptRecords,
	}
	d.seq = stats.MaxSeq
	for _, rec := range recs {
		if err := d.recoverOne(byPlural[rec.Kind], rec); err != nil {
			summary.FailedReplays++
			d.journal.Append(store.JournalRecord{
				Op: store.OpFailed, ID: rec.ID,
				Error: fmt.Sprintf("recovery: %v", err),
				At:    time.Now().UTC(),
			})
		} else {
			summary.RecoveredTasks++
		}
	}
	d.recovery = summary
	registerRecoveryMetrics(d.cfg.Metrics, summary)
	d.log.Info("journal replayed",
		"segments", summary.Segments,
		"recovered", summary.RecoveredTasks,
		"terminal", summary.TerminalTasks,
		"failed_replays", summary.FailedReplays,
		"corrupt_records", summary.CorruptRecords)
}

// recoverOne rebuilds one journaled task through the same strict
// Decode/Prepare pipeline a fresh submission uses, preserving its ID,
// priority, and submission time, and queues it.
func (d *Dispatcher) recoverOne(kind *TaskKind, rec store.JournalRecord) error {
	if kind == nil {
		return fmt.Errorf("unknown task kind %q", rec.Kind)
	}
	spec, err := kind.Decode(rec.Spec)
	if err != nil {
		d.recordReplayFailure(kind, rec, err)
		return err
	}
	prep, err := spec.Prepare()
	if err != nil {
		d.recordReplayFailure(kind, rec, err)
		return err
	}
	priority, perr := ParsePriority(rec.Priority)
	if perr != nil || priority == "" {
		priority = kind.Priority
	}
	t := &task{
		id:          rec.ID,
		kind:        kind,
		hash:        prep.Hash,
		prep:        prep,
		priority:    priority,
		status:      StatusQueued,
		submittedAt: rec.At,
		// The pre-crash wait is unknowable from a monotonic clock;
		// measure from the recovery moment.
		submittedMono:  time.Now(),
		progressStride: progressStrideFor(prep.Total),
		done:           make(chan struct{}),
	}
	d.mu.Lock()
	d.appendEventLocked(t, timelineEntry{kind: entryRecovered})
	d.queue.push(t)
	d.m.queueAdd(t, 1)
	d.m.submitted[kind.Plural].Inc()
	d.appendEventLocked(t, timelineEntry{kind: entryQueued, n: int32(d.queue.depth())})
	d.recordLocked(t)
	d.mu.Unlock()
	return nil
}

// shortHash abbreviates a spec hash for log and timeline detail text.
func shortHash(h string) string {
	if len(h) > 8 {
		return h[:8]
	}
	return h
}

// recordReplayFailure retains a terminal failed record for a journaled
// task that no longer replays, so its ID answers over the API instead
// of vanishing.
func (d *Dispatcher) recordReplayFailure(kind *TaskKind, rec store.JournalRecord, cause error) {
	now := time.Now().UTC()
	t := &task{
		id:          rec.ID,
		kind:        kind,
		priority:    kind.Priority,
		status:      StatusFailed,
		errMsg:      fmt.Sprintf("journal replay: %v", cause),
		submittedAt: rec.At,
		finishedAt:  &now,
		done:        make(chan struct{}),
	}
	close(t.done)
	d.mu.Lock()
	d.appendEventLocked(t, timelineEntry{kind: entryReplayFailed})
	d.appendEventLocked(t, timelineEntry{kind: entryFailed})
	d.m.finished[kind.Plural][StatusFailed].Inc()
	d.recordLocked(t)
	d.retireLocked(t)
	d.mu.Unlock()
	d.log.Warn("journal replay failed for task", "task", t.id, "err", cause)
}

// Recovery returns the boot-time journal replay summary, or nil when
// journaling is disabled.
func (d *Dispatcher) Recovery() *RecoveryStats { return d.recovery }

// JournalStats snapshots the journal counters; ok is false when
// journaling is disabled.
func (d *Dispatcher) JournalStats() (store.JournalStats, bool) {
	if d.journal == nil {
		return store.JournalStats{}, false
	}
	return d.journal.Stats(), true
}

// Cache exposes the result cache (read-mostly: stats, pre-warming).
func (d *Dispatcher) Cache() *store.ResultCache { return d.cache }

// Workers returns the run pool's parallelism.
func (d *Dispatcher) Workers() int { return d.cfg.Workers }

// QueueStats snapshots the queue backlog per kind and priority class.
// It reads the obs registry's backlog gauges — the same series /metrics
// serves — so /healthz and a scrape can never disagree; the gauges move
// under d.mu at every queue transition, and holding it here makes the
// snapshot consistent with itself.
func (d *Dispatcher) QueueStats() QueueStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	qs := QueueStats{
		ByKind:  make(map[string]int, len(taskKinds)),
		ByClass: make(map[string]int, len(priorityClasses)),
	}
	// Keyed by the plural route segment, consistent with TaskCounts, the
	// /healthz tasks map, and the metric "kind" label.
	for plural, g := range d.m.queueKind {
		qs.ByKind[plural] = int(g.Value())
	}
	for class, g := range d.m.queueClass {
		n := int(g.Value())
		qs.ByClass[string(class)] = n
		qs.Depth += n
	}
	return qs
}

// Registry exposes the dispatcher's metrics registry (served at
// /metrics).
func (d *Dispatcher) Registry() *obs.Registry { return d.m.reg }

// Draining reports whether the dispatcher has stopped accepting tasks.
func (d *Dispatcher) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// SubmitTask prepares (normalizes, validates, hashes) and enqueues a
// task of the given kind. An empty priority means the kind's default
// class. It never blocks: a full queue returns ErrQueueFull. With
// journaling enabled, the submission is durable on disk before the task
// becomes visible — a journal write failure rejects the submission
// (ErrJournal) rather than admitting work that a crash would lose.
func (d *Dispatcher) SubmitTask(kind *TaskKind, spec TaskSpec, priority PriorityClass) (TaskView, error) {
	// Validate here, not only in the HTTP handler, so Go callers cannot
	// enqueue a class the queue does not schedule.
	if _, err := ParsePriority(string(priority)); err != nil {
		return TaskView{}, err
	}
	prep, err := spec.Prepare()
	if err != nil {
		return TaskView{}, err
	}
	if priority == "" {
		priority = kind.Priority
	}
	var specBytes []byte
	if d.journal != nil {
		if kind.Encode == nil {
			return TaskView{}, fmt.Errorf("service: kind %q has no Encode; cannot journal its submissions", kind.Name)
		}
		if specBytes, err = kind.Encode(spec); err != nil {
			return TaskView{}, fmt.Errorf("service: encoding %s spec for the journal: %w", kind.Name, err)
		}
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return TaskView{}, ErrDraining
	}
	if d.queue.depth() >= d.cfg.QueueSize {
		return TaskView{}, ErrQueueFull
	}
	d.seq++
	now := time.Now()
	t := &task{
		id:             fmt.Sprintf("%s%06d-%s", kind.Prefix, d.seq, prep.Hash[:8]),
		kind:           kind,
		hash:           prep.Hash,
		prep:           prep,
		priority:       priority,
		status:         StatusQueued,
		submittedAt:    now.UTC(),
		submittedMono:  now,
		progressStride: progressStrideFor(prep.Total),
		done:           make(chan struct{}),
	}
	if d.journal != nil && !d.halted.Load() {
		if err := d.journal.Append(store.JournalRecord{
			Op: store.OpSubmit, ID: t.id, Seq: d.seq,
			Kind: kind.Plural, Priority: string(priority),
			Spec: specBytes, At: t.submittedAt,
		}); err != nil {
			return TaskView{}, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	d.appendEventLocked(t, timelineEntry{kind: entrySubmitted})
	d.queue.push(t)
	d.m.queueAdd(t, 1)
	d.m.submitted[kind.Plural].Inc()
	d.appendEventLocked(t, timelineEntry{kind: entryQueued, n: int32(d.queue.depth())})
	d.recordLocked(t)
	d.lane[queueClass(priority)].Signal()
	d.log.Debug("task submitted",
		"task", t.id, "kind", kind.Name, "priority", string(queueClass(priority)),
		"spec", shortHash(prep.Hash), "queue_depth", d.queue.depth())
	return d.viewLocked(t), nil
}

// Task returns a snapshot of the task, if known.
func (d *Dispatcher) Task(id string) (TaskView, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tasks[id]
	if !ok {
		return TaskView{}, false
	}
	return d.viewLocked(t), true
}

// taskResult returns the task's kind-specific result once it is done,
// with what the results route needs to serve it: the spec hash, the
// kind, and the sole-run reference. The boolean is false for unknown
// tasks; the error reports a task that has not finished, failed, or was
// canceled.
func (d *Dispatcher) taskResult(id string) (any, string, *TaskKind, *SoleRunRef, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tasks[id]
	if !ok {
		return nil, "", nil, nil, false, nil
	}
	switch t.status {
	case StatusDone:
		return t.result, t.hash, t.kind, t.prep.SoleRun, true, nil
	case StatusFailed:
		return nil, t.hash, t.kind, nil, true, fmt.Errorf("service: %s %s failed: %s", t.kind.Name, id, t.errMsg)
	case StatusCanceled:
		return nil, t.hash, t.kind, nil, true, fmt.Errorf("service: %s %s was canceled", t.kind.Name, id)
	default:
		return nil, t.hash, t.kind, nil, true, fmt.Errorf("service: %s %s is %s", t.kind.Name, id, t.status)
	}
}

// TaskDone returns a channel closed when the task reaches a terminal
// state, or nil for unknown tasks.
func (d *Dispatcher) TaskDone(id string) <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t, ok := d.tasks[id]; ok {
		return t.done
	}
	return nil
}

// Cancel requests cooperative cancellation of a task:
//
//   - queued: canceled immediately — removed from the queue, terminal,
//     it never runs;
//   - running: the cancel flag is set; the task stops between runs,
//     discards partial results, and lands in StatusCanceled (repeated
//     cancels of a running task are idempotent);
//   - terminal: ErrTaskTerminal;
//   - unknown: ErrUnknownTask.
//
// The returned view snapshots the task after the request was applied.
func (d *Dispatcher) Cancel(id string) (TaskView, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tasks[id]
	if !ok {
		return TaskView{}, ErrUnknownTask
	}
	switch t.status {
	case StatusQueued:
		d.queue.remove(t)
		d.m.queueAdd(t, -1)
		d.m.cancelQueued.Inc()
		t.cancel.Store(true)
		mono := time.Now()
		now := mono.UTC()
		t.finishedAt = &now
		t.finishedMono = mono
		t.status = StatusCanceled
		t.errMsg = "canceled while queued"
		t.prep.Run = nil // release the plan; it will never execute
		close(t.done)
		d.m.finished[t.kind.Plural][StatusCanceled].Inc()
		d.appendEventLocked(t, timelineEntry{kind: entryCanceledQueued})
		d.closeSubsLocked(t)
		d.journalTerminal(t, "")
		d.retireLocked(t)
		d.log.Info("task canceled while queued", "task", t.id, "kind", t.kind.Name)
	case StatusRunning:
		// Idempotent: only the first request counts and leaves a
		// timeline entry; the task honors it between runs.
		if !t.cancel.Load() {
			d.m.cancelRunning.Inc()
			d.appendEventLocked(t, timelineEntry{kind: entryCancelRequested})
			d.log.Info("task cancellation requested", "task", t.id, "kind", t.kind.Name)
		}
		t.cancel.Store(true)
		if queueClass(t.priority) == PriorityBulk {
			// The bulk lane's task: let its waiting run take the next
			// freed Runner, find the flag and stop, rather than wait
			// behind interactive runs.
			d.bulkClaim.Promote()
		}
	default:
		return d.viewLocked(t), ErrTaskTerminal
	}
	return d.viewLocked(t), nil
}

// TaskCounts returns per-kind, per-status record counts (keyed by the
// kind's plural route segment, matching the API surface).
func (d *Dispatcher) TaskCounts() map[string]map[Status]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	counts := make(map[string]map[Status]int, len(taskKinds))
	for _, k := range taskKinds {
		counts[k.Plural] = make(map[Status]int, 5)
	}
	for _, t := range d.tasks {
		counts[t.kind.Plural][t.status]++
	}
	return counts
}

// Drain stops accepting new tasks, lets every queued and running task
// finish (canceled queued tasks are skipped, honoring the cancellation),
// then closes the worker hub, the journal, and the cache. It is
// idempotent; ctx bounds the wait.
func (d *Dispatcher) Drain(ctx context.Context) error {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	for _, lane := range d.lane {
		lane.Broadcast()
	}

	select {
	case <-d.schedDone:
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
	// Both lanes have returned, so no task is executing: every run and
	// remote batch a task started has settled.
	d.hub.Close()
	if d.journal != nil {
		d.journal.Close()
	}
	d.cache.Close()
	return nil
}

func (d *Dispatcher) viewLocked(t *task) TaskView {
	v := TaskView{
		ID:              t.id,
		Kind:            t.kind.Name,
		SpecHash:        t.hash,
		Status:          t.status,
		Priority:        t.priority,
		TotalRuns:       t.prep.Total,
		CompletedRuns:   int(t.completed.Load()),
		CacheHits:       int(t.cacheHits.Load()),
		CancelRequested: t.status == StatusRunning && t.cancel.Load(),
		Error:           t.errMsg,
		SubmittedAt:     t.submittedAt,
		StartedAt:       t.startedAt,
		FinishedAt:      t.finishedAt,
	}
	// Monotonic durations, live for non-terminal tasks. A task that
	// never started (canceled while queued) reports its whole life as
	// queue wait; replay-failure records have no monotonic anchor and
	// report nothing.
	if !t.submittedMono.IsZero() {
		if t.startedMono.IsZero() {
			v.QueueWaitMillis = monoMillis(t.submittedMono, t.finishedMono)
		} else {
			v.QueueWaitMillis = monoMillis(t.submittedMono, t.startedMono)
			v.RunMillis = monoMillis(t.startedMono, t.finishedMono)
		}
	}
	return v
}

// monoMillis is the duration from a monotonic start to a monotonic end
// (now when end is zero), in milliseconds at microsecond resolution.
func monoMillis(start, end time.Time) float64 {
	if end.IsZero() {
		end = time.Now()
	}
	return float64(end.Sub(start).Microseconds()) / 1e3
}

// scheduler is the lane of one priority class: it executes the class's
// queued tasks one at a time, FIFO. The popped task transitions to
// running under the same lock, so a concurrent Cancel can never observe
// it as still queued. An interactive start also applies the aging rule
// to the bulk lane's running task.
func (d *Dispatcher) scheduler(class PriorityClass) {
	defer d.lanes.Done()
	for {
		d.mu.Lock()
		t := d.queue.pop(class)
		for t == nil && !d.draining {
			d.lane[class].Wait()
			t = d.queue.pop(class)
		}
		if t == nil {
			d.mu.Unlock()
			return // draining and drained
		}
		d.m.queueAdd(t, -1)
		claim := experiments.NewClaim(class == PriorityBulk)
		if class == PriorityBulk {
			d.bulkClaim, d.overtakes = claim, 0
		} else if d.bulkClaim != nil && d.bulkClaim.Waiting() {
			if d.overtakes++; d.overtakes > d.cfg.AgeAfter && d.bulkClaim.Promote() {
				d.m.agingPromotions.Inc()
				d.log.Info("running bulk task promoted", "overtaken_by", t.id)
			}
		}
		mono := time.Now()
		now := mono.UTC()
		t.status = StatusRunning
		t.startedAt = &now
		t.startedMono = mono
		wait := mono.Sub(t.submittedMono)
		d.m.queueWait[t.kind.Plural][class].Observe(wait.Seconds())
		d.appendEventLocked(t, timelineEntry{kind: entryStarted, dur: wait.Round(time.Microsecond)})
		d.mu.Unlock()
		d.log.Info("task started", "task", t.id, "kind", t.kind.Name,
			"priority", string(class), "queue_wait", wait)
		d.executeTask(t, claim)
	}
}

// executeTask runs one task (already marked running by its lane)
// through its kind's Run on the run pool under claim, then finalizes the
// record: done with its result, failed with its error, or canceled with
// partial results discarded. With a journal configured, the terminal
// transition is journaled (for done tasks, with a fingerprint of the
// wire-shaped result) so a restart never replays finished work.
func (d *Dispatcher) executeTask(t *task, claim *experiments.Claim) {
	check := func() error {
		if t.cancel.Load() || d.halted.Load() {
			return ErrCanceled
		}
		return nil
	}
	env := TaskEnv{
		// The hub's executor fans batches to attached workers and
		// degrades to the pool when none are live. The pool checks for
		// cancellation before it starts each run; a remote call polls
		// the same check while it waits.
		Exec:  d.hub.Executor(d.pool.Bind(claim, check), check),
		Cache: d.cache,
		Progress: func(completed, cacheHits int) {
			// Progress callbacks arrive concurrently from run
			// goroutines once per run with no ordering guarantee. The
			// counters are lock-free CAS-max (a stale callback cannot make
			// a polled view regress, and the hot path never touches the
			// dispatcher lock — under a parallel campaign that lock is
			// contended by every status poll and metrics scrape).
			storeMax(&t.completed, int64(completed))
			storeMax(&t.cacheHits, int64(cacheHits))
			// Timeline progress at stride boundaries (~16 events per
			// sized task), so a watcher sees motion without an event per
			// run. Racing callbacks CAS the threshold forward; the winner
			// alone takes the lock and appends the event.
			for {
				next := t.nextProgress.Load()
				cur := t.completed.Load()
				if cur < next {
					return
				}
				if t.nextProgress.CompareAndSwap(next, cur+int64(t.progressStride)) {
					d.mu.Lock()
					d.appendEventLocked(t, timelineEntry{kind: entryProgress, n: int32(cur), m: int32(t.cacheHits.Load())})
					d.mu.Unlock()
					return
				}
			}
		},
	}
	result, stats, err := d.safeRun(t, env)

	// Fingerprint the result for the journal before taking the lock (a
	// report marshals ~0.5 MB); only used if the task finalizes as done.
	var resultHash string
	if d.journal != nil && err == nil && !t.cancel.Load() {
		resultHash = wireHash(t.kind, t.hash, result)
	}

	endMono := time.Now()
	end := endMono.UTC()
	ran := endMono.Sub(t.startedMono)
	d.mu.Lock()
	t.finishedAt = &end
	t.finishedMono = endMono
	switch {
	case errors.Is(err, ErrCanceled) || t.cancel.Load():
		// Cancellation wins even over a completed Run: the contract is
		// that a canceled task never publishes results.
		t.status = StatusCanceled
		t.errMsg = ErrCanceled.Error()
		d.appendEventLocked(t, timelineEntry{kind: entryCanceled, n: int32(t.completed.Load())})
	case err != nil:
		t.status = StatusFailed
		t.errMsg = err.Error()
		d.appendEventLocked(t, timelineEntry{kind: entryFailed})
	default:
		t.status = StatusDone
		t.completed.Store(int64(stats.Completed))
		t.cacheHits.Store(int64(stats.CacheHits))
		t.result = result
		d.appendEventLocked(t, timelineEntry{kind: entryDone, n: int32(stats.Completed),
			m: int32(stats.CacheHits), dur: ran.Round(time.Microsecond)})
	}
	d.m.finished[t.kind.Plural][t.status].Inc()
	d.m.taskDur[t.kind.Plural].Observe(ran.Seconds())
	d.closeSubsLocked(t)
	// Terminal records only serve views and results: drop the Run
	// closure so a retained record costs its result, not its expanded
	// plan (a 10k-run job's plan is megabytes of resolved options).
	t.prep.Run = nil
	d.journalTerminal(t, resultHash)
	d.retireLocked(t)
	status, completed, cacheHits, errMsg := t.status, t.completed.Load(), t.cacheHits.Load(), t.errMsg
	d.mu.Unlock()
	close(t.done)
	if status == StatusFailed {
		d.log.Warn("task failed", "task", t.id, "kind", t.kind.Name, "ran", ran, "err", errMsg)
	} else {
		d.log.Info("task finished", "task", t.id, "kind", t.kind.Name,
			"status", string(status), "runs", completed, "cache_hits", cacheHits, "ran", ran)
	}
}

// storeMax advances a monotone atomic counter to v unless it is
// already past it.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// progressDetail renders one progress event's detail line.
func progressDetail(completed, total, cacheHits int) string {
	if total > 0 {
		return fmt.Sprintf("%d/%d runs, %d cache hits", completed, total, cacheHits)
	}
	return fmt.Sprintf("%d runs, %d cache hits", completed, cacheHits)
}

// safeRun executes the task's kind-level Run with panic isolation: a
// panicking engine fails its own task (with the panic value and stack
// in the error) instead of taking the daemon down.
func (d *Dispatcher) safeRun(t *task, env TaskEnv) (result any, stats TaskStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			result, stats = nil, TaskStats{}
			err = fmt.Errorf("%w: %v\n%s", ErrTaskPanic, p, debug.Stack())
			d.m.taskPanics.Inc()
			d.log.Error("task panicked", "task", t.id, "kind", t.kind.Name, "panic", fmt.Sprint(p))
		}
	}()
	return t.prep.Run(env)
}

// wireHash fingerprints a finished task's results-endpoint encoding
// (SHA-256 of the wire JSON) for its journaled done record; empty when
// the result does not marshal. It is computed only when a journal is
// configured: nothing else reads it, and a report marshals ~0.5 MB.
func wireHash(kind *TaskKind, hash string, result any) string {
	b, err := json.Marshal(kind.Wire(hash, result))
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// journalTerminal appends the terminal record of t (whose status must
// already be final). It never fails the task — an append error only
// bumps the journal's error counter — and it is suppressed after Halt:
// a halted dispatcher simulates a crashed process, whose journal would
// never have seen the transition. Callers hold d.mu, which also keeps
// journal order consistent with record state.
func (d *Dispatcher) journalTerminal(t *task, resultHash string) {
	if d.journal == nil || d.halted.Load() {
		return
	}
	rec := store.JournalRecord{ID: t.id, At: time.Now().UTC()}
	switch t.status {
	case StatusDone:
		rec.Op, rec.ResultHash = store.OpDone, resultHash
	case StatusFailed:
		rec.Op, rec.Error = store.OpFailed, t.errMsg
	case StatusCanceled:
		rec.Op = store.OpCanceled
	default:
		return // non-terminal: nothing to journal
	}
	d.journal.Append(rec) // errors counted inside the journal
}

// Halt simulates a crash for the recovery machinery: the dispatcher
// stops accepting work, queued and in-flight tasks are abandoned
// (canceled in memory, between runs), and — critically — none of those
// transitions reaches the journal, exactly as if the process had died.
// The journal therefore still lists the abandoned tasks as live, and
// the next dispatcher opened on the same journal directory recovers
// them. Unlike a real crash the goroutines are cleaned up; ctx bounds
// that wait.
func (d *Dispatcher) Halt(ctx context.Context) error {
	d.halted.Store(true)
	return d.Drain(ctx)
}

// classRecords is one retention class's share of the task records: the
// class's records in submission order, live and terminal alike, and how
// many of them are terminal. Eviction pops terminal records off the
// head, so it never rescans the retained set.
type classRecords struct {
	queue    []*task
	terminal int
}

// recordLocked makes a new task record visible and appends it to its
// retention class's submission-order queue. d.mu must be held.
func (d *Dispatcher) recordLocked(t *task) {
	d.tasks[t.id] = t
	r := d.retained[t.kind.Class]
	r.queue = append(r.queue, t)
}

// retireLocked counts t's transition to a terminal status and applies
// its class's retention cap: past the cap, the oldest finished records
// in submission order (not finish order, which priority and aging
// reorder) are evicted until the cap holds, so a long-lived daemon's
// memory is bounded by the record caps rather than its submission
// history. Queued and running records met at the head of the queue stay
// in place; the cost is O(evicted + live prefix). d.mu must be held.
func (d *Dispatcher) retireLocked(t *task) {
	r := d.retained[t.kind.Class]
	r.terminal++
	limit := d.cfg.retentionCap(t.kind.Class)
	if r.terminal <= limit {
		return
	}
	live, i := 0, 0
	for ; i < len(r.queue) && r.terminal > limit; i++ {
		if qt := r.queue[i]; qt.status.terminal() {
			delete(d.tasks, qt.id)
			r.terminal--
		} else {
			r.queue[live] = qt
			live++
		}
	}
	// Slide the live prefix up against the unscanned tail, then clear
	// the vacated head slots: re-slicing alone would leave the evicted
	// records, and their results, reachable through the backing array.
	copy(r.queue[i-live:i], r.queue[:live])
	clear(r.queue[:i-live])
	r.queue = r.queue[i-live:]
}

// AggregateFor computes the campaign aggregate of a result set.
func AggregateFor(results []experiments.RunOutcome) metrics.Aggregate {
	return metrics.AggregateOutcomes(experiments.Outcomes(results))
}
