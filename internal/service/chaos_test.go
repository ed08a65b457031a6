package service

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/explore"
	"adasim/internal/metrics"
	"adasim/internal/store"
)

// newChaosDispatcher is newTestDispatcher with a run-function override:
// the injection point for faults beneath the run pool's retry and
// panic-isolation layers.
func newChaosDispatcher(t *testing.T, cfg Config, run func(*experiments.Runner, core.Options) (*core.Result, error)) *Dispatcher {
	t.Helper()
	d, err := newDispatcher(cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := d.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return d
}

// TestRunRetryTransientFailure pins the pool's retry: a run that fails
// transiently (here: the first two attempts) succeeds on the retry, the
// task finishes done, and its results are byte-identical to a run with
// no faults at all.
func TestRunRetryTransientFailure(t *testing.T) {
	var calls atomic.Int64
	flaky := func(r *experiments.Runner, opts core.Options) (*core.Result, error) {
		if calls.Add(1) <= 2 {
			return nil, errors.New("injected transient fault")
		}
		return r.Do(opts)
	}
	d := newChaosDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 16}, flaky)
	v, err := d.SubmitTask(JobKind, smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	final := finalViews(t, d, v.ID)[v.ID]
	if final.Status != StatusDone {
		t.Fatalf("flaky run did not recover: %+v", final)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("run attempts = %d, want 3 (two injected failures + success)", got)
	}
	if got := d.m.runRetries.Value(); got != 2 {
		t.Errorf("adasim_run_retries_total = %d, want 2", got)
	}
	chaotic := fetchResults(t, d, v.ID)

	clean := newTestDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 16})
	cv, err := clean.SubmitTask(JobKind, smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	if final := finalViews(t, clean, cv.ID)[cv.ID]; final.Status != StatusDone {
		t.Fatalf("clean run: %+v", final)
	}
	if string(chaotic) != string(fetchResults(t, clean, cv.ID)) {
		t.Error("results after transient-fault retries differ from fault-free results")
	}
}

// TestRunRetryExhausted pins the bound: a persistently failing run is
// retried RunRetries times, then fails its task with the attempt count
// in the error.
func TestRunRetryExhausted(t *testing.T) {
	var calls atomic.Int64
	broken := func(*experiments.Runner, core.Options) (*core.Result, error) {
		calls.Add(1)
		return nil, errors.New("injected persistent fault")
	}
	d := newChaosDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 16, RunRetries: 2}, broken)
	v, err := d.SubmitTask(JobKind, smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	final := finalViews(t, d, v.ID)[v.ID]
	if final.Status != StatusFailed {
		t.Fatalf("persistently failing run = %+v, want failed", final)
	}
	if !strings.Contains(final.Error, "after 3 attempts") {
		t.Fatalf("error %q does not carry the attempt count", final.Error)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + RunRetries)", got)
	}
}

// TestWorkerPanicIsolation is the daemon-survives test: a run that
// panics fails only its own task — with the panic in the error, no
// retries — and the dispatcher keeps scheduling and completing other
// tasks afterwards.
func TestWorkerPanicIsolation(t *testing.T) {
	bad := smallSpec()
	bad.BaseSeed = 13
	badPlan, err := bad.Normalized().Plan()
	if err != nil {
		t.Fatal(err)
	}
	badSeed := badPlan[0].Opts.Seed

	var calls atomic.Int64
	bomb := func(r *experiments.Runner, opts core.Options) (*core.Result, error) {
		if opts.Seed == badSeed {
			calls.Add(1)
			panic("injected run panic")
		}
		return r.Do(opts)
	}
	d := newChaosDispatcher(t, Config{Workers: 2, QueueSize: 8, CacheEntries: 16}, bomb)

	bv, err := d.SubmitTask(JobKind, bad, "")
	if err != nil {
		t.Fatal(err)
	}
	gv, err := d.SubmitTask(JobKind, smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	views := finalViews(t, d, bv.ID, gv.ID)
	if got := views[bv.ID]; got.Status != StatusFailed ||
		!strings.Contains(got.Error, ErrRunPanic.Error()) ||
		!strings.Contains(got.Error, "injected run panic") {
		t.Fatalf("panicking task = %+v, want failed with the panic in the error", got)
	}
	if got := views[gv.ID]; got.Status != StatusDone {
		t.Fatalf("concurrent task caught the panic: %+v", got)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("panicking run executed %d times, want 1 (panics must not be retried)", got)
	}

	// The daemon survives: the pool that saw the panic still serves work.
	after, err := d.SubmitTask(JobKind, slowSpec(2), "")
	if err != nil {
		t.Fatal(err)
	}
	if got := finalViews(t, d, after.ID)[after.ID]; got.Status != StatusDone {
		t.Fatalf("post-panic submission = %+v, want done", got)
	}
}

// panicSpec is a task whose kind-level Run (the engine, not a run)
// panics — exercising the task-level isolation layer.
type panicSpec struct{}

func (panicSpec) Prepare() (PreparedTask, error) {
	return PreparedTask{
		Hash: "feedfacefeedface",
		Run: func(env TaskEnv) (any, TaskStats, error) {
			panic("injected engine panic")
		},
	}, nil
}

// TestTaskRunPanicIsolation pins the second isolation layer: an engine
// that panics outside any run still fails only its own task.
func TestTaskRunPanicIsolation(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 16})
	v, err := d.SubmitTask(JobKind, panicSpec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	final := finalViews(t, d, v.ID)[v.ID]
	if final.Status != StatusFailed ||
		!strings.Contains(final.Error, ErrTaskPanic.Error()) ||
		!strings.Contains(final.Error, "injected engine panic") {
		t.Fatalf("panicking engine = %+v, want failed with the panic in the error", final)
	}
	ok, err := d.SubmitTask(JobKind, smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	if got := finalViews(t, d, ok.ID)[ok.ID]; got.Status != StatusDone {
		t.Fatalf("post-panic submission = %+v, want done", got)
	}
}

// TestChaosCacheNeutrality drives executePlan through the ChaosCache
// and ChaosExecutor wrappers: a cache that drops every write and lies
// about every read changes counters, never bytes; an executor fault
// fails the batch with the injected error.
func TestChaosCacheNeutrality(t *testing.T) {
	plan, err := smallSpec().Normalized().Plan()
	if err != nil {
		t.Fatal(err)
	}

	pool := experiments.NewPool(2)
	cache, err := store.NewResultCache(64, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: plain environment.
	want, _, err := executePlan(plan, TaskEnv{Exec: pool, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	// Fully faulty cache: every Get misses, every Put is dropped.
	chaosCache := &ChaosCache{
		Inner:   cache,
		FailGet: func(string) bool { return true },
		FailPut: func(string) bool { return true },
	}
	got, stats, err := executePlan(plan, TaskEnv{Exec: pool, Cache: chaosCache})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Error("a faulty cache changed results; the cache must be correctness-neutral")
	}
	if stats.CacheHits != 0 {
		t.Fatalf("cache hits = %d under a cache that always misses", stats.CacheHits)
	}
	if chaosCache.Injected.Load() == 0 {
		t.Fatal("chaos cache injected no faults")
	}

	// Executor fault: the batch fails with the injected error.
	wantErr := errors.New("injected executor fault")
	chaosExec := &ChaosExecutor{
		Inner:   pool,
		FailRun: func(experiments.RunRequest) error { return wantErr },
	}
	if _, _, err := executePlan(plan, TaskEnv{Exec: chaosExec, Cache: nil}); !errors.Is(err, wantErr) {
		t.Fatalf("executor fault surfaced as %v, want %v", err, wantErr)
	}
	if chaosExec.Injected.Load() != 1 {
		t.Fatalf("executor injected %d faults, want 1", chaosExec.Injected.Load())
	}
}

// TestFailedBatchWritesBackFinishedRuns: a report and an exploration
// whose run fails part-way through a batch still cache the runs of that
// batch that finished, so a resubmission is served exactly those runs
// from the cache. The fault sits beneath the pool (a failing run, not a
// ChaosExecutor, which fails a batch before any of its runs start).
func TestFailedBatchWritesBackFinishedRuns(t *testing.T) {
	grid := explore.Spec{
		Family:        "cut-in",
		Steps:         300,
		BaseSeed:      5,
		Interventions: core.InterventionSet{Driver: true},
		Axes:          []explore.Axis{{Name: "trigger_gap", Min: 10, Max: 60, Points: 6}},
	}
	cases := []struct {
		name string
		kind *TaskKind
		spec TaskSpec
	}{
		{"report", ReportKind, ReportTask{Spec: smallReportSpec()}},
		{"exploration", ExplorationKind, ExplorationTask{Spec: grid}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var armed atomic.Bool
			var calls, finished atomic.Int64
			armed.Store(true)
			run := func(r *experiments.Runner, opts core.Options) (*core.Result, error) {
				if !armed.Load() {
					return r.Do(opts)
				}
				if calls.Add(1) == 3 {
					return nil, errors.New("injected run fault")
				}
				res, err := r.Do(opts)
				if err == nil {
					finished.Add(1)
				}
				return res, err
			}
			d := newChaosDispatcher(t, Config{Workers: 2, QueueSize: 4, CacheEntries: 1 << 12, RunRetries: -1}, run)

			v, err := d.SubmitTask(tc.kind, tc.spec, "")
			if err != nil {
				t.Fatal(err)
			}
			if got := finalViews(t, d, v.ID)[v.ID]; got.Status != StatusFailed {
				t.Fatalf("first submission = %+v, want failed", got)
			}
			armed.Store(false)
			want := finished.Load()
			if want < 2 {
				t.Fatalf("%d runs finished beside the failed one, want the rest of its batch", want)
			}

			v2, err := d.SubmitTask(tc.kind, tc.spec, "")
			if err != nil {
				t.Fatal(err)
			}
			got := finalViews(t, d, v2.ID)[v2.ID]
			if got.Status != StatusDone {
				t.Fatalf("resubmission = %+v, want done", got)
			}
			if int64(got.CacheHits) != want {
				t.Errorf("resubmission cache_hits = %d, want the %d runs that finished", got.CacheHits, want)
			}
		})
	}
}

// ChaosExecutor wraps an Executor and fails selected runs before they
// reach the inner executor. A nil FailRun makes it a transparent
// pass-through.
type ChaosExecutor struct {
	Inner Executor
	// FailRun, when non-nil, is consulted once per run request; a
	// non-nil error fails the whole batch with that error, without any
	// run executing (the len(reqs) outcomes returned are all zero, per
	// the Executor contract).
	FailRun func(req experiments.RunRequest) error

	// Injected counts the faults actually delivered.
	Injected atomic.Int64
}

// Execute implements Executor.
func (ce *ChaosExecutor) Execute(reqs []experiments.RunRequest, onDone func(i int, ro experiments.RunOutcome)) ([]experiments.RunOutcome, error) {
	for _, req := range reqs {
		if ce.FailRun != nil {
			if err := ce.FailRun(req); err != nil {
				ce.Injected.Add(1)
				return make([]experiments.RunOutcome, len(reqs)), err
			}
		}
	}
	return ce.Inner.Execute(reqs, onDone)
}

// ChaosCache wraps a Cache with drop-style faults: a failed Get is a
// miss, a failed Put is silently discarded. Both are correctness-
// neutral by the cache contract (the cache is an accelerator), which is
// exactly what the byte-identity tests exercise.
type ChaosCache struct {
	Inner Cache
	// FailGet, when non-nil and returning true, turns that Get into a
	// miss without consulting the inner cache.
	FailGet func(key string) bool
	// FailPut, when non-nil and returning true, drops that Put.
	FailPut func(key string) bool

	// Injected counts the faults actually delivered.
	Injected atomic.Int64
}

// Get implements Cache.
func (cc *ChaosCache) Get(key string) (metrics.Outcome, bool) {
	if cc.FailGet != nil && cc.FailGet(key) {
		cc.Injected.Add(1)
		return metrics.Outcome{}, false
	}
	return cc.Inner.Get(key)
}

// Put implements Cache.
func (cc *ChaosCache) Put(key string, out metrics.Outcome) {
	if cc.FailPut != nil && cc.FailPut(key) {
		cc.Injected.Add(1)
		return
	}
	cc.Inner.Put(key, out)
}
