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

// gateSpec is a task that announces itself when its lane starts it and
// then blocks until the test hands it an outcome on release, so a test
// decides exactly when, and how, each task finishes.
type gateSpec struct {
	n       int
	h       *retentionHarness
	release chan gateOutcome
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
		Run: func(TaskEnv) (any, error) {
			select {
			case g.h.started <- g.n:
			case <-g.h.stop:
				return nil, ErrCanceled
			}
			select {
			case out := <-g.release:
				return out.result, out.err
			case <-g.h.stop:
				return nil, ErrCanceled
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
	// started receives a gate task's submission number when its lane
	// runs it; release hands each task its outcome; stop, closed at
	// cleanup, lets every gate task return so the dispatcher can drain.
	started chan int
	release map[string]chan gateOutcome
	stop    chan struct{}

	ids      []string // by submission number
	class    map[string]RetentionClass
	priority map[string]PriorityClass
	status   map[string]Status
	order    []string                 // the oracle's retained IDs, in submission order
	running  map[PriorityClass]string // per lane; "" when the lane is idle
	queued   []string                 // queued IDs, in submission order
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
		started:  make(chan int),
		release:  make(map[string]chan gateOutcome),
		stop:     make(chan struct{}),
		class:    make(map[string]RetentionClass),
		priority: make(map[string]PriorityClass),
		status:   make(map[string]Status),
		running:  make(map[PriorityClass]string),
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

// settle waits, while a lane is idle and its class has queued work, for
// the lanes to start their next tasks. Afterwards the dispatcher is
// quiescent: each busy lane blocks inside its running gate until the
// test releases it.
func (h *retentionHarness) settle() {
	h.t.Helper()
	for {
		idle := 0
		for _, class := range priorityClasses {
			if h.running[class] == "" && slices.ContainsFunc(h.queued, func(id string) bool { return h.priority[id] == class }) {
				idle++
			}
		}
		if idle == 0 {
			return
		}
		select {
		case n := <-h.started:
			id := h.ids[n]
			h.queued = slices.DeleteFunc(h.queued, func(q string) bool { return q == id })
			h.status[id] = StatusRunning
			h.running[h.priority[id]] = id
		case <-time.After(10 * time.Second):
			h.t.Fatalf("lanes did not start any of %d queued tasks", len(h.queued))
		}
	}
}

// submit enqueues a gate task; it returns "" when the queue is full.
func (h *retentionHarness) submit(kind *TaskKind, priority PriorityClass) string {
	h.t.Helper()
	n := len(h.ids)
	release := make(chan gateOutcome)
	v, err := h.d.SubmitTask(kind, gateSpec{n: n, h: h, release: release}, priority)
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
	h.priority[v.ID] = queueClass(v.Priority)
	h.release[v.ID] = release
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

// busyLanes lists the lanes running a task.
func (h *retentionHarness) busyLanes() []PriorityClass {
	var busy []PriorityClass
	for _, class := range priorityClasses {
		if h.running[class] != "" {
			busy = append(busy, class)
		}
	}
	return busy
}

// finish ends the running task of a lane with the given terminal status
// and returns the weak pointer to its result (zero unless done).
func (h *retentionHarness) finish(lane PriorityClass, status Status) weak.Pointer[gateResult] {
	h.t.Helper()
	id := h.running[lane]
	if id == "" {
		h.t.Fatalf("finish with no running %s task", lane)
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
	h.release[id] <- out
	<-done
	delete(h.release, id)
	h.status[id] = status
	h.running[lane] = ""
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
// priorities, so both lanes), cancellations of queued tasks, and
// completions (done, failed, canceled while running) in either lane
// under small caps and aging, and checks the dispatcher's retained
// records against the full-scan oracle after every step. A failure names its seed; rerun it with
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
				case p < 0.55 && len(h.busyLanes()) > 0:
					lanes := h.busyLanes()
					lane := lanes[rng.Intn(len(lanes))]
					status := finishes[rng.Intn(len(finishes))]
					step = fmt.Sprintf("finish %s as %s", h.running[lane], status)
					h.finish(lane, status)
				default:
					kind := kinds[rng.Intn(len(kinds))]
					priority := priorities[rng.Intn(len(priorities))]
					step = fmt.Sprintf("submit %s %s -> %q", kind.Name, priority, h.submit(kind, priority))
				}
				h.check(fmt.Sprintf("seed %d step %d (%s)", seed, i, step))
			}
			for _, lane := range priorities {
				for h.running[lane] != "" {
					h.finish(lane, StatusDone)
					h.check(fmt.Sprintf("seed %d final drain", seed))
				}
			}
		})
	}
}

// TestRetentionKeepsQueuedHead pins eviction in submission order, not
// finish order: a bulk job queued behind a running bulk report heads
// the standard class's queue while newer interactive jobs finish,
// survives their eviction while it waits, and, once it finishes last, is
// the first record evicted.
func TestRetentionKeepsQueuedHead(t *testing.T) {
	h := newRetentionHarness(t, Config{QueueSize: 8, MaxJobRecords: 2, AgeAfter: 100})
	h.submit(ReportKind, PriorityBulk)                       // occupies the bulk lane
	jobs := []string{h.submit(JobKind, PriorityInteractive)} // runs at once
	bulk := h.submit(JobKind, PriorityBulk)
	for i := 0; i < 4; i++ {
		jobs = append(jobs, h.submit(JobKind, PriorityInteractive))
	}
	for i := 0; i < 4; i++ {
		h.finish(PriorityInteractive, StatusDone)
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
	h.finish(PriorityInteractive, StatusDone) // jobs[4]
	h.finish(PriorityBulk, StatusDone)        // the report; the bulk job starts
	h.finish(PriorityBulk, StatusDone)        // the bulk job
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
		results = append(results, h.finish(PriorityInteractive, StatusDone))
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

// TestRetainedRecordBytes prices one finished job record: the live heap
// that 2,000 finished jobs add, each run through the stub run seam with
// a distinct seed so every run executes and the timeline carries its
// full progress trail. The result cache is kept at capacity by the
// warm-up, so only the records grow. The bounds sit between the packed
// record (~3.1 KB for 12 runs, ~1.0 KB for one) and the one before it,
// with 184-B outcomes, 32-B timeline entries and two *time.Time stamps
// (~3.6 KB and ~1.2 KB). They were set on go1.24.0 linux/amd64, where
// the probe reads 3,067–3,073 B and 1,027 B, plain and under -race.
// The margins (~130 B and ~70 B) absorb run-to-run noise, not a
// different toolchain's size classes or map layout: re-measure on a new
// Go version or architecture before reading a failure as a record that
// grew.
func TestRetainedRecordBytes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reps  int
		bound float64
	}{
		{"12-run", 12, 3200},
		{"single-run", 1, 1100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newChaosDispatcher(t, Config{Workers: 2, CacheEntries: 16}, stubRun)
			seed := int64(0)
			finish := func(n int) {
				for i := 0; i < n; i++ {
					spec := smallSpec()
					spec.Reps = tc.reps
					seed++
					spec.BaseSeed = seed
					submitAndWait(t, d, spec)
				}
			}
			heap := func() uint64 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			const records = 2000
			finish(200)
			before := heap()
			finish(records)
			per := float64(int64(heap())-int64(before)) / records
			t.Logf("%s job record: %.0f B retained", tc.name, per)
			if per > tc.bound {
				t.Errorf("%s job record retains %.0f B, want <= %.0f", tc.name, per, tc.bound)
			}
		})
	}
}
