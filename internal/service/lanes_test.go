package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/metrics"
	"adasim/internal/scenario"
)

// bulkSteps marks bulk work in the lane tests: the run gate tells a
// bulk run from an interactive one (smallSpec, 300 steps) by its step
// count.
const bulkSteps = 310

// laneGate is the run seam of the lane tests. Each run reports its step
// count (which tells its task, or at least its class) as it starts and
// then holds the dispatcher's only Runner until the test steps it, so
// the test decides exactly which runs are waiting when the Runner is
// freed — order is asserted without sleeps. Closing open lets every run
// through unheld.
type laneGate struct {
	t       *testing.T
	d       *Dispatcher
	started chan int
	step    chan struct{}
	open    chan struct{}
}

// newLaneDispatcher boots a one-worker dispatcher behind a laneGate.
func newLaneDispatcher(t *testing.T, cfg Config) *laneGate {
	t.Helper()
	g := &laneGate{
		t:       t,
		started: make(chan int),
		step:    make(chan struct{}),
		open:    make(chan struct{}),
	}
	cfg.Workers = 1
	g.d = newChaosDispatcher(t, cfg, func(r *experiments.Runner, opts core.Options) (*core.Result, error) {
		select {
		case g.started <- opts.Steps:
		case <-g.open:
			return r.Do(opts)
		}
		select {
		case <-g.step:
		case <-g.open:
		}
		return r.Do(opts)
	})
	// Registered after the drain cleanup, so it runs first.
	t.Cleanup(g.release)
	return g
}

// release lets every held and future run through. Idempotent.
func (g *laneGate) release() {
	select {
	case <-g.open:
	default:
		close(g.open)
	}
}

// nextSteps returns the step count of the next run to start.
func (g *laneGate) nextSteps() int {
	g.t.Helper()
	select {
	case steps := <-g.started:
		return steps
	case <-time.After(10 * time.Second):
		g.t.Fatal("no run started")
		return 0
	}
}

// next returns the class of the next run to start.
func (g *laneGate) next() PriorityClass {
	g.t.Helper()
	if g.nextSteps() == bulkSteps {
		return PriorityBulk
	}
	return PriorityInteractive
}

// stepNext lets the held run finish and returns the class of the run
// the freed Runner went to.
func (g *laneGate) stepNext() PriorityClass {
	g.t.Helper()
	g.step <- struct{}{}
	return g.next()
}

// stepNextSteps is stepNext reporting the step count.
func (g *laneGate) stepNextSteps() int {
	g.t.Helper()
	g.step <- struct{}{}
	return g.nextSteps()
}

// awaitQueued waits until n runs wait for the Runner.
func (g *laneGate) awaitQueued(n int) {
	g.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.d.pool.Queued() != n {
		if time.Now().After(deadline) {
			g.t.Fatalf("%d runs wait for the runner, want %d", g.d.pool.Queued(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// submit enqueues a task and fails the test on error.
func (g *laneGate) submit(kind *TaskKind, spec TaskSpec, priority PriorityClass) TaskView {
	g.t.Helper()
	v, err := g.d.SubmitTask(kind, spec, priority)
	if err != nil {
		g.t.Fatal(err)
	}
	return v
}

// bulkJob is a job of reps bulk-marked runs.
func bulkJob(reps int) JobSpec {
	s := smallSpec()
	s.Steps = bulkSteps
	s.Reps = reps
	return s
}

// freshJob is a one-run interactive job no other test task shares.
func freshJob(seed int64) JobSpec {
	s := smallSpec()
	s.BaseSeed = seed
	return s
}

// batchSpec is a task that executes its batches one after another, the
// way a report or an exploration issues one Execute call per campaign
// or probe round. Each run is tagged by its step count.
type batchSpec [][]int

func (s batchSpec) Prepare() (PreparedTask, error) {
	total := 0
	for _, batch := range s {
		total += len(batch)
	}
	return PreparedTask{
		Hash:  fmt.Sprintf("batches-%v", [][]int(s)),
		Total: total,
		Run: func(env TaskEnv) (any, error) {
			var outs []experiments.RunOutcome
			for _, batch := range s {
				reqs := make([]experiments.RunRequest, len(batch))
				for i, steps := range batch {
					rep := len(outs) + i
					reqs[i] = experiments.RunRequest{
						Key:  experiments.RunKey{Scenario: scenario.S1, Gap: 60, Rep: rep},
						Opts: core.Options{Scenario: scenario.DefaultSpec(scenario.S1, 60), Seed: int64(rep), Steps: steps},
					}
				}
				got, err := env.Exec.Execute(reqs, nil)
				if err != nil {
					return nil, err
				}
				outs = append(outs, got...)
			}
			return outs, nil
		},
	}, nil
}

// status reads a task's current status.
func (g *laneGate) status(id string) Status {
	v, _ := g.d.Task(id)
	return v.Status
}

// TestLanesJobsFinishMidReport pins the lanes: while a report holds the
// only runner, a cache-served job runs to completion without touching
// the pool, and a fresh job takes the runner as soon as the report's
// run frees it — both finish while the report is still running.
func TestLanesJobsFinishMidReport(t *testing.T) {
	g := newLaneDispatcher(t, Config{QueueSize: 16, CacheEntries: 256})
	warm := g.submit(JobKind, freshJob(41), "")
	if class := g.next(); class != PriorityInteractive {
		t.Fatalf("warm-up run class %s", class)
	}
	g.step <- struct{}{}
	finalViews(t, g.d, warm.ID)

	spec := smallReportSpec()
	spec.Steps = bulkSteps
	rep := g.submit(ReportKind, ReportTask{Spec: spec}, "")
	if class := g.next(); class != PriorityBulk {
		t.Fatalf("report run class %s", class)
	}
	g.awaitQueued(1) // the report's next run

	cached := g.submit(JobKind, freshJob(41), "")
	if v := finalViews(t, g.d, cached.ID)[cached.ID]; v.Status != StatusDone || v.CacheHits != 1 {
		t.Fatalf("cache-served job mid-report: %+v", v)
	}
	if s := g.status(rep.ID); s != StatusRunning {
		t.Fatalf("report %s after the cached job, want running", s)
	}

	fresh := g.submit(JobKind, freshJob(42), "")
	g.awaitQueued(2)
	if class := g.stepNext(); class != PriorityInteractive {
		t.Fatalf("freed runner went to a %s run while the fresh job waited", class)
	}
	g.step <- struct{}{}
	if v := finalViews(t, g.d, fresh.ID)[fresh.ID]; v.Status != StatusDone || v.CacheHits != 0 {
		t.Fatalf("fresh job mid-report: %+v", v)
	}
	if class := g.next(); class != PriorityBulk {
		t.Fatalf("run after the fresh job: %s, want the report's", class)
	}
	if s := g.status(rep.ID); s != StatusRunning {
		t.Fatalf("report %s after the fresh job, want running", s)
	}
	g.release()
	if v := finalViews(t, g.d, rep.ID)[rep.ID]; v.Status != StatusDone {
		t.Fatalf("report: %+v", v)
	}
}

// TestHandoffInteractiveBeforeBulk pins the handoff rule: a bulk task's
// run gets the freed runner only when no interactive run waits, even
// though it has waited longer.
func TestHandoffInteractiveBeforeBulk(t *testing.T) {
	g := newLaneDispatcher(t, Config{QueueSize: 16, CacheEntries: 256})
	bulk := g.submit(JobKind, bulkJob(3), PriorityBulk)
	order := []PriorityClass{g.next()}
	g.awaitQueued(1)
	inter := freshJob(50)
	inter.Reps = 3
	iv := g.submit(JobKind, inter, "")
	g.awaitQueued(2)
	for i := 0; i < 3; i++ {
		order = append(order, g.stepNext())
		if i < 2 {
			g.awaitQueued(2) // the job's next run and the bulk run
		}
	}
	g.awaitQueued(1)
	order = append(order, g.stepNext())
	want := []PriorityClass{PriorityBulk, PriorityInteractive, PriorityInteractive, PriorityInteractive, PriorityBulk}
	if !slices.Equal(order, want) {
		t.Fatalf("run start order %v, want %v", order, want)
	}
	g.release()
	for id, v := range finalViews(t, g.d, bulk.ID, iv.ID) {
		if v.Status != StatusDone {
			t.Errorf("%s: %+v", id, v)
		}
	}
}

// TestLaneStartsNextOnceRunsHoldRunners pins the lane rule: a lane
// starts its next task only once every run of its newest task's first
// batch holds a Runner, and then without waiting for that task to
// finish. The next task's run never takes the Runner while the earlier
// task has a run waiting.
func TestLaneStartsNextOnceRunsHoldRunners(t *testing.T) {
	g := newLaneDispatcher(t, Config{QueueSize: 16, CacheEntries: 256})
	a := g.submit(JobKind, batchSpec{{401, 401, 401}}, "")
	if steps := g.nextSteps(); steps != 401 {
		t.Fatalf("first run has %d steps, want A's", steps)
	}
	g.awaitQueued(1)
	b := g.submit(JobKind, batchSpec{{402}}, "")
	for run := 2; run <= 3; run++ {
		if s := g.status(b.ID); s != StatusQueued {
			t.Fatalf("B %s while A's run %d waits for the runner, want queued", s, run)
		}
		if steps := g.stepNextSteps(); steps != 401 {
			t.Fatalf("runner went to a %d-step run while A's run %d waited", steps, run)
		}
	}
	// A's last run holds the runner: B starts, and its run waits.
	awaitRunning(t, g.d, b.ID)
	g.awaitQueued(1)
	if s := g.status(a.ID); s != StatusRunning {
		t.Fatalf("A %s when B started, want running", s)
	}
	if steps := g.stepNextSteps(); steps != 402 {
		t.Fatalf("run after A's: %d steps, want B's", steps)
	}
	g.release()
	views := finalViews(t, g.d, a.ID, b.ID)
	for id, v := range views {
		if v.Status != StatusDone {
			t.Errorf("%s: %+v", id, v)
		}
	}
	if va, vb := views[a.ID], views[b.ID]; !vb.StartedAt.Before(*va.FinishedAt) || vb.StartedAt.Before(*va.StartedAt) {
		t.Errorf("B started at %v, want between A's start %v and finish %v", vb.StartedAt, va.StartedAt, va.FinishedAt)
	}
}

// TestHandoffEarliestStartedFirst pins the handoff within a rank: once
// the lane has started the task after a multi-batch one, the earlier
// task's second batch still takes the freed runner ahead of the later
// task's run, which has waited longer.
func TestHandoffEarliestStartedFirst(t *testing.T) {
	g := newLaneDispatcher(t, Config{QueueSize: 16, CacheEntries: 256})
	a := g.submit(JobKind, batchSpec{{411}, {412}}, PriorityBulk)
	order := []int{g.nextSteps()}
	b := g.submit(JobKind, batchSpec{{413}}, PriorityBulk)
	awaitRunning(t, g.d, b.ID)
	g.awaitQueued(1) // B's run
	// An interactive run takes the runner from A's first batch, so A's
	// second batch queues behind B's run.
	c := g.submit(JobKind, batchSpec{{414}}, "")
	g.awaitQueued(2)
	order = append(order, g.stepNextSteps())
	g.awaitQueued(2) // B's run and A's second batch
	order = append(order, g.stepNextSteps(), g.stepNextSteps())
	if want := []int{411, 414, 412, 413}; !slices.Equal(order, want) {
		t.Fatalf("run start order %v, want %v", order, want)
	}
	g.release()
	for id, v := range finalViews(t, g.d, a.ID, b.ID, c.ID) {
		if v.Status != StatusDone {
			t.Errorf("%s: %+v", id, v)
		}
	}
}

// TestLaneWaitsForLeasedTask pins the lane rule's fleet side: runs
// leased to a remote worker never take a local Runner, so the lane
// starts the next task only once the leased one has finished.
func TestLaneWaitsForLeasedTask(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 16})
	w, err := d.hub.Register("fake", 1)
	if err != nil {
		t.Fatal(err)
	}
	// serve leases the next batch and completes it with the outcomes a
	// healthy worker computes.
	serve := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		grant, err := d.hub.Lease(w, 100*time.Millisecond)
		for err == nil && len(grant.Runs) == 0 && time.Now().Before(deadline) {
			grant, err = d.hub.Lease(w, 100*time.Millisecond)
		}
		if err != nil || len(grant.Runs) == 0 {
			t.Fatalf("no lease granted: %v", err)
		}
		var r experiments.Runner
		outcomes := make([]metrics.Outcome, len(grant.Runs))
		for i, run := range grant.Runs {
			opts, err := experiments.UnmarshalOptions(run.Opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Do(opts)
			if err != nil {
				t.Fatal(err)
			}
			outcomes[i] = res.Outcome
		}
		if resp, err := d.hub.Complete(w, grant.LeaseID, outcomes, ""); err != nil || !resp.Accepted {
			t.Fatalf("complete: %+v, %v", resp, err)
		}
	}
	first := freshJob(90)
	first.Reps = 2
	a, err := d.SubmitTask(JobKind, first, "")
	if err != nil {
		t.Fatal(err)
	}
	awaitRunning(t, d, a.ID)
	b, err := d.SubmitTask(JobKind, freshJob(91), "")
	if err != nil {
		t.Fatal(err)
	}
	serve()
	finalViews(t, d, a.ID)
	serve()
	views := finalViews(t, d, a.ID, b.ID)
	for id, v := range views {
		if v.Status != StatusDone {
			t.Errorf("%s: %+v", id, v)
		}
	}
	if va, vb := views[a.ID], views[b.ID]; vb.StartedAt.Before(*va.FinishedAt) {
		t.Errorf("B started at %v, before the leased A finished at %v", vb.StartedAt, va.FinishedAt)
	}
}

// TestAgingPromotesAfterAgeAfterStarts pins the aging rule: a running
// bulk task with runs waiting is overtaken by exactly AgeAfter
// interactive task starts; the next start promotes it (counted once),
// and its runs then take the freed runner ahead of the waiting
// interactive run.
func TestAgingPromotesAfterAgeAfterStarts(t *testing.T) {
	const ageAfter = 2
	g := newLaneDispatcher(t, Config{QueueSize: 16, CacheEntries: 256, AgeAfter: ageAfter})
	bulk := g.submit(JobKind, bulkJob(8), PriorityBulk)
	if class := g.next(); class != PriorityBulk {
		t.Fatalf("first run class %s", class)
	}
	g.awaitQueued(1)
	var ids []string
	for k := 0; k <= ageAfter; k++ {
		v := g.submit(JobKind, freshJob(int64(60+k)), "")
		ids = append(ids, v.ID)
		awaitRunning(t, g.d, v.ID)
		promoted := k == ageAfter
		want := uint64(0)
		if promoted {
			want = 1
		}
		if got := g.d.m.agingPromotions.Value(); got != want {
			t.Fatalf("after %d interactive starts: %d promotions, want %d", k+1, got, want)
		}
		g.awaitQueued(2) // the job's run and the bulk task's next run
		if promoted {
			if class := g.stepNext(); class != PriorityBulk {
				t.Fatalf("promoted bulk task lost the runner to a %s run", class)
			}
			break
		}
		if class := g.stepNext(); class != PriorityInteractive {
			t.Fatalf("start %d: runner went to a %s run before promotion", k+1, class)
		}
		if class := g.stepNext(); class != PriorityBulk {
			t.Fatalf("start %d: run after the job: %s, want the bulk task's", k+1, class)
		}
		finalViews(t, g.d, v.ID)
		g.awaitQueued(1)
	}
	g.release()
	finalViews(t, g.d, append(ids, bulk.ID)...)
	if got := g.d.m.agingPromotions.Value(); got != 1 {
		t.Errorf("promotions = %d, want 1", got)
	}
}

// TestLanesCancelDrainHalt pins cancellation, Drain and Halt with both
// lanes busy: queued tasks of either class cancel at once, a running
// bulk task whose runs wait behind interactive ones ends at the next
// freed runner, and Drain finishes the uncanceled work of both lanes
// while Halt abandons it. The overlap cases hold two tasks of one lane
// in flight: Drain returns only once both have finished, and canceling
// either, or halting, leaves the results of the one that ran intact.
// Run under -race.
func TestLanesCancelDrainHalt(t *testing.T) {
	t.Run("overlap", testLaneOverlapCancelDrainHalt)
	for _, halt := range []bool{false, true} {
		name := map[bool]string{false: "drain", true: "halt"}[halt]
		t.Run(name, func(t *testing.T) {
			g := newLaneDispatcher(t, Config{QueueSize: 16, CacheEntries: 256})
			inter := freshJob(70)
			inter.Reps = 4
			iv := g.submit(JobKind, inter, "")
			if class := g.next(); class != PriorityInteractive {
				t.Fatalf("first run class %s", class)
			}
			bv := g.submit(JobKind, bulkJob(4), PriorityBulk)
			awaitRunning(t, g.d, bv.ID)
			g.awaitQueued(2)
			queuedI := g.submit(JobKind, freshJob(71), "")
			queued := bulkJob(2)
			queued.BaseSeed = 75
			queuedB := g.submit(JobKind, queued, PriorityBulk)
			cancelI := g.submit(JobKind, freshJob(72), "")
			later := bulkJob(2)
			later.BaseSeed = 73
			cancelB := g.submit(JobKind, later, PriorityBulk)
			if depth := g.d.QueueStats().Depth; depth != 4 {
				t.Fatalf("queue depth %d with both lanes busy, want 4", depth)
			}
			for _, id := range []string{cancelI.ID, cancelB.ID} {
				if v, err := g.d.Cancel(id); err != nil || v.Status != StatusCanceled {
					t.Fatalf("cancel queued %s: %+v, %v", id, v, err)
				}
			}
			if v, err := g.d.Cancel(bv.ID); err != nil || !v.CancelRequested {
				t.Fatalf("cancel running bulk task: %+v, %v", v, err)
			}
			// The canceled bulk task's run takes the next freed runner only
			// to stop, so it ends while the interactive job still runs.
			if class := g.stepNext(); class != PriorityInteractive {
				t.Fatalf("run after the cancel: %s, want the interactive job's", class)
			}
			if v := finalViews(t, g.d, bv.ID)[bv.ID]; v.Status != StatusCanceled {
				t.Fatalf("canceled bulk task: %+v", v)
			}
			if s := g.status(iv.ID); s != StatusRunning {
				t.Fatalf("interactive job %s when the canceled bulk task ended, want running", s)
			}

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			stopped := make(chan error, 1)
			go func() {
				if halt {
					stopped <- g.d.Halt(ctx)
				} else {
					stopped <- g.d.Drain(ctx)
				}
			}()
			for !g.d.Draining() { // Halt marks the dispatcher halted first
				time.Sleep(50 * time.Microsecond)
			}
			g.release()
			if err := <-stopped; err != nil {
				t.Fatal(err)
			}
			if _, err := g.d.SubmitTask(JobKind, freshJob(74), ""); !errors.Is(err, ErrDraining) {
				t.Errorf("submit after %s: %v, want ErrDraining", name, err)
			}
			views := finalViews(t, g.d, iv.ID, bv.ID, queuedI.ID, queuedB.ID, cancelI.ID, cancelB.ID)
			want := map[string]Status{bv.ID: StatusCanceled, cancelI.ID: StatusCanceled, cancelB.ID: StatusCanceled}
			for _, id := range []string{iv.ID, queuedI.ID, queuedB.ID} {
				want[id] = StatusDone
				if halt {
					want[id] = StatusCanceled
				}
			}
			for id, v := range views {
				if v.Status != want[id] {
					t.Errorf("%s after %s: %s, want %s", id, name, v.Status, want[id])
				}
			}
		})
	}
}

// testLaneOverlapCancelDrainHalt is TestLanesCancelDrainHalt's overlap
// case: A's runs all hold or have held the runner, B's run waits for it.
func testLaneOverlapCancelDrainHalt(t *testing.T) {
	first, second := freshJob(80), freshJob(81)
	first.Reps, second.Reps = 2, 2
	ref := newTestDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 16})
	want := map[int]string{}
	for i, spec := range []JobSpec{first, second} {
		v, err := ref.SubmitTask(JobKind, spec, "")
		if err != nil {
			t.Fatal(err)
		}
		finalViews(t, ref, v.ID)
		want[i] = wireResults(t, ref, v.ID)
	}
	for _, mode := range []string{"drain", "halt", "cancel-first", "cancel-second"} {
		t.Run(mode, func(t *testing.T) {
			g := newLaneDispatcher(t, Config{QueueSize: 16, CacheEntries: 256})
			a := g.submit(JobKind, first, "")
			g.next()
			g.stepNext() // A's last run holds the runner
			b := g.submit(JobKind, second, "")
			awaitRunning(t, g.d, b.ID)
			g.awaitQueued(1)
			status := map[string]Status{a.ID: StatusDone, b.ID: StatusDone}
			switch mode {
			case "halt":
				status[b.ID] = StatusCanceled // its run never started
			case "cancel-first":
				status[a.ID] = StatusCanceled
			case "cancel-second":
				status[b.ID] = StatusCanceled
			}
			for _, id := range []string{a.ID, b.ID} {
				if status[id] == StatusCanceled && mode != "halt" {
					if v, err := g.d.Cancel(id); err != nil || !v.CancelRequested {
						t.Fatalf("cancel %s: %+v, %v", id, v, err)
					}
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			stopped := make(chan error, 1)
			go func() {
				if mode == "halt" {
					stopped <- g.d.Halt(ctx)
				} else {
					stopped <- g.d.Drain(ctx)
				}
			}()
			for !g.d.Draining() {
				time.Sleep(50 * time.Microsecond)
			}
			select {
			case err := <-stopped:
				t.Fatalf("%s returned with both tasks in flight: %v", mode, err)
			default:
			}
			g.release()
			if err := <-stopped; err != nil {
				t.Fatal(err)
			}
			for i, id := range []string{a.ID, b.ID} {
				select {
				case <-g.d.TaskDone(id):
				default:
					t.Fatalf("%s returned before %s finished", mode, id)
				}
				v, _ := g.d.Task(id)
				if v.Status != status[id] {
					t.Errorf("%s after %s: %s, want %s", id, mode, v.Status, status[id])
				}
				if v.Status == StatusDone && wireResults(t, g.d, id) != want[i] {
					t.Errorf("%s after %s: results differ from an uninterrupted run", id, mode)
				}
			}
		})
	}
}

// wireResults is a finished task's results, encoded as served.
func wireResults(t *testing.T, d *Dispatcher, id string) string {
	t.Helper()
	res, _, err := d.TaskResults(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
