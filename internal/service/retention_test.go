package service

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"
)

// gateSpec is a task that announces itself when the scheduler starts it
// and then blocks until the test hands it an outcome, so a test decides
// exactly when, and how, each task finishes.
type gateSpec struct {
	n int
	h *retentionHarness
}

// gateOutcome is what a released gate task returns from its Run.
type gateOutcome struct {
	result any
	err    error
}

// gateResult is a done gate task's result; its size keeps it out of the
// tiny allocator, so a weak pointer to it tracks its own reachability.
type gateResult struct {
	pad [64]byte
}

func (g gateSpec) Prepare() (PreparedTask, error) {
	return PreparedTask{
		Hash: fmt.Sprintf("%016x", g.n),
		Run: func(TaskEnv) (any, TaskStats, error) {
			select {
			case g.h.started <- g.n:
			case <-g.h.stop:
				return nil, TaskStats{}, ErrCanceled
			}
			select {
			case out := <-g.h.release:
				return out.result, TaskStats{}, out.err
			case <-g.h.stop:
				return nil, TaskStats{}, ErrCanceled
			}
		},
	}, nil
}

// retentionHarness drives a real dispatcher through gate tasks and
// mirrors every record's status in a model. The model's retained set is
// maintained by oraclePrune, the full-scan retention rule, and compared
// against the dispatcher after every step.
type retentionHarness struct {
	t    *testing.T
	d    *Dispatcher
	caps map[RetentionClass]int
	// started receives a gate task's submission number when the
	// scheduler runs it; release hands the running task its outcome;
	// stop, closed at cleanup, lets every gate task return so the
	// dispatcher can drain.
	started chan int
	release chan gateOutcome
	stop    chan struct{}

	ids     []string // by submission number
	class   map[string]RetentionClass
	status  map[string]Status
	order   []string // the oracle's retained IDs, in submission order
	running string   // "" when no task runs
	queued  []string // queued IDs, in submission order
}

func newRetentionHarness(t *testing.T, cfg Config) *retentionHarness {
	t.Helper()
	cfg.Workers = 1
	cfg = cfg.normalized()
	h := &retentionHarness{
		t: t,
		d: newTestDispatcher(t, cfg),
		caps: map[RetentionClass]int{
			RetentionStandard: cfg.MaxJobRecords,
			RetentionHeavy:    cfg.MaxReportRecords,
		},
		started: make(chan int),
		release: make(chan gateOutcome),
		stop:    make(chan struct{}),
		class:   make(map[string]RetentionClass),
		status:  make(map[string]Status),
	}
	// Registered after newTestDispatcher's drain, so it runs first.
	t.Cleanup(func() { close(h.stop) })
	return h
}

// oraclePrune is the retention rule as a full scan: per class, while
// more than the cap of its retained records are terminal, the oldest
// terminal one in submission order is evicted.
func (h *retentionHarness) oraclePrune() {
	for class, limit := range h.caps {
		n := 0
		for _, id := range h.order {
			if h.class[id] == class && h.status[id].terminal() {
				n++
			}
		}
		kept := h.order[:0]
		for _, id := range h.order {
			if n > limit && h.class[id] == class && h.status[id].terminal() {
				n--
				continue
			}
			kept = append(kept, id)
		}
		h.order = kept
	}
}

// settle waits, when nothing runs and work is queued, for the scheduler
// to start the next task. Afterwards the dispatcher is quiescent: the
// scheduler blocks inside the running gate until the test releases it.
func (h *retentionHarness) settle() {
	h.t.Helper()
	if h.running != "" || len(h.queued) == 0 {
		return
	}
	select {
	case n := <-h.started:
		id := h.ids[n]
		h.queued = slices.DeleteFunc(h.queued, func(q string) bool { return q == id })
		h.status[id] = StatusRunning
		h.running = id
	case <-time.After(10 * time.Second):
		h.t.Fatalf("scheduler did not start any of %d queued tasks", len(h.queued))
	}
}

// submit enqueues a gate task; it returns "" when the queue is full.
func (h *retentionHarness) submit(kind *TaskKind, priority PriorityClass) string {
	h.t.Helper()
	n := len(h.ids)
	v, err := h.d.SubmitTask(kind, gateSpec{n: n, h: h}, priority)
	if full := len(h.queued) >= h.d.cfg.QueueSize; full {
		if !errors.Is(err, ErrQueueFull) {
			h.t.Fatalf("submit with %d queued: err %v, want ErrQueueFull", len(h.queued), err)
		}
		return ""
	}
	if err != nil {
		h.t.Fatalf("submit %s: %v", kind.Name, err)
	}
	h.ids = append(h.ids, v.ID)
	h.class[v.ID] = kind.Class
	h.status[v.ID] = StatusQueued
	h.order = append(h.order, v.ID)
	h.queued = append(h.queued, v.ID)
	h.settle()
	return v.ID
}

// cancelQueued cancels a queued task, which finishes it immediately.
func (h *retentionHarness) cancelQueued(id string) {
	h.t.Helper()
	v, err := h.d.Cancel(id)
	if err != nil || v.Status != StatusCanceled {
		h.t.Fatalf("cancel queued %s: %+v, %v", id, v, err)
	}
	h.queued = slices.DeleteFunc(h.queued, func(q string) bool { return q == id })
	h.status[id] = StatusCanceled
	h.oraclePrune()
}

// finish ends the running task with the given terminal status and
// returns the weak pointer to its result (zero unless done).
func (h *retentionHarness) finish(status Status) weak.Pointer[gateResult] {
	h.t.Helper()
	id := h.running
	if id == "" {
		h.t.Fatal("finish with no running task")
	}
	// Fetched first: the finishing task may be evicted at once, when it
	// is its class's oldest terminal record.
	done := h.d.TaskDone(id)
	var out gateOutcome
	var wp weak.Pointer[gateResult]
	switch status {
	case StatusDone:
		res := &gateResult{}
		wp = weak.Make(res)
		out.result = res
	case StatusFailed:
		out.err = errors.New("injected task failure")
	case StatusCanceled:
		if _, err := h.d.Cancel(id); err != nil {
			h.t.Fatalf("cancel running %s: %v", id, err)
		}
	}
	h.release <- out
	<-done
	h.status[id] = status
	h.running = ""
	h.oraclePrune()
	h.settle()
	return wp
}

// check compares the dispatcher's records with the model: the retained
// ID set and each record's status, and per retention class the terminal
// count, the queue contents in submission order, and the queue bound.
func (h *retentionHarness) check(step string) {
	h.t.Helper()
	d := h.d
	d.mu.Lock()
	defer d.mu.Unlock()
	var got []string
	terminalRecords := make(map[RetentionClass]int)
	for id, tk := range d.tasks {
		got = append(got, id)
		if want := h.status[id]; tk.status != want {
			h.t.Errorf("%s: %s status %s, model %s", step, id, tk.status, want)
		}
		if tk.status.terminal() {
			terminalRecords[tk.kind.Class]++
		}
	}
	slices.Sort(got)
	want := slices.Sorted(slices.Values(h.order))
	if !slices.Equal(got, want) {
		h.t.Fatalf("%s: retained %v, oracle %v", step, got, want)
	}
	for class, limit := range h.caps {
		r := d.retained[class]
		if r.terminal != terminalRecords[class] {
			h.t.Fatalf("%s: %s terminal count %d, records %d", step, class, r.terminal, terminalRecords[class])
		}
		live := 0
		var wantQueue []string
		for _, id := range h.order {
			if h.class[id] == class {
				wantQueue = append(wantQueue, id)
				if !h.status[id].terminal() {
					live++
				}
			}
		}
		gotQueue := make([]string, len(r.queue))
		for i, tk := range r.queue {
			gotQueue[i] = tk.id
		}
		if !slices.Equal(gotQueue, wantQueue) {
			h.t.Fatalf("%s: %s queue %v, want %v", step, class, gotQueue, wantQueue)
		}
		if len(r.queue) > limit+live {
			h.t.Fatalf("%s: %s queue holds %d, cap %d + live %d", step, class, len(r.queue), limit, live)
		}
	}
}

// TestRetentionInterleavings drives seeded random interleavings of
// submissions (every kind, so both retention classes, and both
// priorities), cancellations of queued tasks, and completions (done,
// failed, canceled while running) under small caps and aging, and checks
// the dispatcher's retained records against the full-scan oracle after
// every step. A failure names its seed; rerun it with
// -run 'TestRetentionInterleavings/seed=N$'.
func TestRetentionInterleavings(t *testing.T) {
	kinds := []*TaskKind{JobKind, ExplorationKind, ReportKind}
	priorities := []PriorityClass{PriorityInteractive, PriorityBulk}
	finishes := []Status{StatusDone, StatusDone, StatusFailed, StatusCanceled}
	const seeds, steps = 100, 400
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := newRetentionHarness(t, Config{
				QueueSize:        8,
				MaxJobRecords:    1 + rng.Intn(4),
				MaxReportRecords: 1 + rng.Intn(3),
				AgeAfter:         1 + rng.Intn(3),
			})
			for i := 0; i < steps; i++ {
				var step string
				switch p := rng.Float64(); {
				case p < 0.2 && len(h.queued) > 0:
					id := h.queued[rng.Intn(len(h.queued))]
					step = "cancel queued " + id
					h.cancelQueued(id)
				case p < 0.55 && h.running != "":
					status := finishes[rng.Intn(len(finishes))]
					step = fmt.Sprintf("finish %s as %s", h.running, status)
					h.finish(status)
				default:
					kind := kinds[rng.Intn(len(kinds))]
					priority := priorities[rng.Intn(len(priorities))]
					step = fmt.Sprintf("submit %s %s -> %q", kind.Name, priority, h.submit(kind, priority))
				}
				h.check(fmt.Sprintf("seed %d step %d (%s)", seed, i, step))
			}
			for h.running != "" {
				h.finish(StatusDone)
				h.check(fmt.Sprintf("seed %d final drain", seed))
			}
		})
	}
}

// TestRetentionKeepsQueuedHead pins eviction in submission order, not
// finish order: a bulk job queued behind interactive work heads the
// standard class's queue while newer jobs finish, survives their
// eviction while it waits, and, once it finishes last, is the first
// record evicted.
func TestRetentionKeepsQueuedHead(t *testing.T) {
	h := newRetentionHarness(t, Config{QueueSize: 8, MaxJobRecords: 2, AgeAfter: 100})
	jobs := []string{h.submit(JobKind, PriorityInteractive)} // runs at once
	bulk := h.submit(JobKind, PriorityBulk)
	for i := 0; i < 4; i++ {
		jobs = append(jobs, h.submit(JobKind, PriorityInteractive))
	}
	for i := 0; i < 4; i++ {
		h.finish(StatusDone)
		h.check(fmt.Sprintf("finish %d", i))
	}
	// jobs[0..3] are done and the cap keeps two, so the two oldest are
	// gone; the older bulk job is still queued at the head.
	h.d.mu.Lock()
	head := h.d.retained[RetentionStandard].queue[0]
	h.d.mu.Unlock()
	if head.id != bulk || head.status != StatusQueued {
		t.Fatalf("standard head = %s (%s), want queued bulk job %s", head.id, head.status, bulk)
	}
	for _, id := range jobs[:2] {
		if _, ok := h.d.Task(id); ok {
			t.Errorf("finished job %s retained past the cap", id)
		}
	}
	h.finish(StatusDone) // jobs[4]; the bulk job starts
	h.finish(StatusDone) // the bulk job
	h.check("bulk finished")
	if _, ok := h.d.Task(bulk); ok {
		t.Errorf("bulk job %s retained, want evicted as the oldest submission", bulk)
	}
	for _, id := range jobs[3:] {
		if _, ok := h.d.Task(id); !ok {
			t.Errorf("job %s evicted, want retained as one of the two newest submissions", id)
		}
	}
}

// TestEvictedRecordsUnreachable pins that eviction releases a record's
// memory: once a done record is evicted, nothing in the dispatcher, the
// retention queue's backing array included, keeps its result reachable.
func TestEvictedRecordsUnreachable(t *testing.T) {
	const n, limit = 8, 2
	h := newRetentionHarness(t, Config{QueueSize: n, MaxJobRecords: limit})
	for i := 0; i < n; i++ {
		h.submit(JobKind, PriorityInteractive)
	}
	var results []weak.Pointer[gateResult]
	for i := 0; i < n; i++ {
		results = append(results, h.finish(StatusDone))
	}
	h.check("all finished")
	runtime.GC()
	runtime.GC()
	for i, wp := range results {
		if kept := i >= n-limit; (wp.Value() != nil) != kept {
			t.Errorf("job %d result reachable = %v, want %v", i, wp.Value() != nil, kept)
		}
	}
}
