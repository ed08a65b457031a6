package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adasim/internal/fi"
	"adasim/internal/report"
)

// slowSpec is a job that reliably keeps a single-worker pool busy for
// hundreds of milliseconds: fault-free runs never terminate early, so
// every rep pays the full 8000-step horizon (~5 ms each).
func slowSpec(reps int) JobSpec {
	s := smallSpec()
	s.Fault = fi.Params{}
	s.Steps = 8000
	s.Reps = reps
	return s
}

// submitOccupier submits a slow job and waits until the interactive
// lane has actually started it, so follow-up interactive submissions
// land in the queue (not ahead of an unpopped occupier).
func submitOccupier(t *testing.T, d *Dispatcher, reps int) TaskView {
	t.Helper()
	v, err := d.SubmitTask(JobKind, slowSpec(reps), "")
	if err != nil {
		t.Fatal(err)
	}
	return awaitRunning(t, d, v.ID)
}

// awaitRunning waits until a lane has started the task.
func awaitRunning(t *testing.T, d *Dispatcher, id string) TaskView {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		view, ok := d.Task(id)
		if ok && view.Status == StatusRunning {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("task %s never started: %+v", id, view)
		}
		time.Sleep(time.Millisecond)
	}
}

// finalViews waits for the given tasks to finish and returns the final
// view of every one.
func finalViews(t *testing.T, d *Dispatcher, ids ...string) map[string]TaskView {
	t.Helper()
	views := make(map[string]TaskView, len(ids))
	for _, id := range ids {
		ch := d.TaskDone(id)
		if ch == nil {
			t.Fatalf("unknown task %s", id)
		}
		select {
		case <-ch:
		case <-time.After(2 * time.Minute):
			t.Fatalf("task %s did not finish", id)
		}
		view, ok := d.Task(id)
		if !ok {
			t.Fatalf("task %s vanished", id)
		}
		views[id] = view
	}
	return views
}

// bulkReportSpec is a report with enough short runs that the gaps
// between interactive tasks, where a bulk run may take the runner,
// cannot finish it.
func bulkReportSpec() report.Spec {
	s := smallReportSpec()
	s.Reps = 4
	return s
}

// TestInteractiveOvertakesBulk pins the priority order: with an
// occupier running, a bulk report submitted BEFORE two interactive jobs
// finishes after them — its runs wait while interactive runs do.
func TestInteractiveOvertakesBulk(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 16, CacheEntries: 64})
	occ := submitOccupier(t, d, 60)
	rep, err := d.SubmitTask(ReportKind, ReportTask{Spec: bulkReportSpec()}, "")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []string
	for i := 0; i < 2; i++ {
		spec := smallSpec()
		spec.BaseSeed = int64(50 + i)
		v, err := d.SubmitTask(JobKind, spec, "")
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, v.ID)
	}
	views := finalViews(t, d, append([]string{occ.ID, rep.ID}, jobs...)...)
	for _, id := range jobs {
		if j, r := views[id], views[rep.ID]; j.FinishedAt.After(*r.FinishedAt) {
			t.Errorf("interactive job %s finished at %v, after bulk report %s at %v",
				id, j.FinishedAt, rep.ID, r.FinishedAt)
		}
	}
	if views[rep.ID].Priority != PriorityBulk {
		t.Errorf("report priority = %q, want bulk", views[rep.ID].Priority)
	}
}

// TestBulkAgingPreventsStarvation pins the aging rule: after AgeAfter
// interactive tasks have overtaken a bulk task with a run waiting, the
// bulk task's runs go ahead of further interactive work. Each job runs
// two slow reps, so the third job cannot finish inside the report's
// post-run rendering. The order is read from the run-progress events,
// which are stamped under the dispatcher lock as runs complete: finish
// times would also count each task's finalize, which a descheduled
// goroutine can delay past the next task's.
func TestBulkAgingPreventsStarvation(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 16, CacheEntries: 64, AgeAfter: 2})
	occ := submitOccupier(t, d, 60)
	rep, err := d.SubmitTask(ReportKind, ReportTask{Spec: bulkReportSpec()}, "")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []string
	for i := 0; i < 4; i++ {
		spec := slowSpec(2)
		spec.BaseSeed = int64(70 + i)
		v, err := d.SubmitTask(JobKind, spec, "")
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, v.ID)
	}
	// Expected dispatch order: occ, J0, J1 (two overtakes), REP (aged),
	// J2, J3.
	finalViews(t, d, append([]string{occ.ID, rep.ID}, jobs...)...)
	// progress returns when each of a task's progress events past the
	// first run landed (a task's "0/N" event marks its start, not a run).
	progress := func(id string) []time.Time {
		events, _ := d.TaskEvents(id)
		var ts []time.Time
		for _, ev := range events {
			if ev.Event == EventProgress && !strings.HasPrefix(ev.Detail, "0/") {
				ts = append(ts, ev.TS)
			}
		}
		if len(ts) == 0 {
			t.Fatalf("task %s has no progress events", id)
		}
		return ts
	}
	r, j1, j2 := progress(rep.ID), progress(jobs[1]), progress(jobs[2])
	repLast := r[len(r)-1]
	if j1Last := j1[len(j1)-1]; repLast.Before(j1Last) {
		t.Errorf("bulk report ran its last run before the second interactive job's: %v < %v", repLast, j1Last)
	}
	if j2First := j2[0]; repLast.After(j2First) {
		t.Errorf("aging rule did not promote the bulk report: its last run at %v, third job's first at %v", repLast, j2First)
	}
}

// TestCancelQueuedNeverRuns pins the first leg of the cancellation
// state machine: a queued task canceled before the scheduler reaches it
// is terminal immediately and never starts.
func TestCancelQueuedNeverRuns(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 8, CacheEntries: 64})
	submitOccupier(t, d, 60)
	v, err := d.SubmitTask(JobKind, smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := d.Cancel(v.ID)
	if err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if canceled.Status != StatusCanceled {
		t.Fatalf("canceled view = %+v", canceled)
	}
	select {
	case <-d.TaskDone(v.ID):
	default:
		t.Error("done channel not closed by queued-cancel")
	}
	if _, err := d.Cancel(v.ID); err != ErrTaskTerminal {
		t.Errorf("re-cancel err = %v, want ErrTaskTerminal", err)
	}
	if depth := d.QueueStats().Depth; depth != 0 {
		t.Errorf("queue depth after cancel = %d, want 0", depth)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := d.Drain(ctx); err != nil { // drain honors the cancellation
		t.Fatalf("drain: %v", err)
	}
	final, ok := d.Task(v.ID)
	if !ok || final.Status != StatusCanceled || final.StartedAt != nil || final.CompletedRuns != 0 {
		t.Errorf("canceled task ran anyway: %+v", final)
	}
	if _, ok, err := d.TaskResults(v.ID); !ok || err == nil {
		t.Errorf("canceled results: ok=%v err=%v, want ok and an error", ok, err)
	}
}

// TestCancelMidTaskDiscardsPartialResults pins the second leg: a
// running task stops between runs, its partial results are discarded,
// and it lands in StatusCanceled.
func TestCancelMidTaskDiscardsPartialResults(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 1024})
	v, err := d.SubmitTask(JobKind, slowSpec(200), "") // ~1s of single-shard work
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		view, ok := d.Task(v.ID)
		if !ok {
			t.Fatal("task vanished")
		}
		if view.Status == StatusRunning && view.CompletedRuns > 0 {
			break
		}
		if view.Status.terminal() || time.Now().After(deadline) {
			t.Fatalf("task never observed mid-run: %+v", view)
		}
		time.Sleep(2 * time.Millisecond)
	}
	view, err := d.Cancel(v.ID)
	if err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	if view.Status != StatusRunning || !view.CancelRequested {
		t.Errorf("mid-task cancel view = %+v, want running with cancel_requested", view)
	}
	if _, err := d.Cancel(v.ID); err != nil && err != ErrTaskTerminal {
		t.Errorf("repeated cancel of a running task: %v", err)
	}
	final := finalViews(t, d, v.ID)[v.ID]
	if final.Status != StatusCanceled {
		t.Fatalf("final status = %s, want canceled", final.Status)
	}
	if final.CompletedRuns == 0 || final.CompletedRuns >= final.TotalRuns {
		t.Errorf("canceled after %d of %d runs, want strictly between",
			final.CompletedRuns, final.TotalRuns)
	}
	if final.FinishedAt == nil {
		t.Error("canceled task has no finish time")
	}
	if _, ok, err := d.TaskResults(v.ID); !ok || err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Errorf("task results of canceled task: ok=%v err=%v", ok, err)
	}
	// The task's result is discarded, but the runs that completed before
	// the cancel are valid content-addressed outcomes and stay cached —
	// an interrupted batch does not forfeit the work that succeeded.
	if entries := d.Cache().Stats().Entries; entries < final.CompletedRuns {
		t.Errorf("cache holds %d entries after %d completed runs, want >=",
			entries, final.CompletedRuns)
	}
}

// TestCancelVsDrainRace hammers cancellation against a concurrent
// drain; run under -race (make test-race) this pins the absence of
// data races between Cancel, the scheduler pop, and Drain. Every task
// must still reach a terminal state.
func TestCancelVsDrainRace(t *testing.T) {
	d, err := NewDispatcher(Config{Workers: 2, QueueSize: 32, CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 8; i++ {
		spec := smallSpec()
		spec.BaseSeed = int64(200 + i)
		v, err := d.SubmitTask(JobKind, spec, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, id := range ids {
			d.Cancel(id) // any state is fair game; errors expected
		}
	}()
	drainErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		drainErr <- d.Drain(ctx)
	}()
	wg.Wait()
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		view, ok := d.Task(id)
		if !ok {
			continue // pruned: necessarily terminal
		}
		if !view.Status.terminal() {
			t.Errorf("task %s ended non-terminal: %+v", id, view)
		}
	}
}

// TestSubmitErrorMappingAllKinds is the table-driven satellite: every
// kind's submit endpoint maps queue-full to 429 with Retry-After,
// draining to 503, and a bad spec to 400 — all with the shared
// {"error": ...} body shape.
func TestSubmitErrorMappingAllKinds(t *testing.T) {
	d, err := NewDispatcher(Config{Workers: 1, QueueSize: 1, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	kinds := []struct {
		plural    string
		valid     string
		bad       string
		wantInBad string
	}{
		{
			plural:    "jobs",
			valid:     `{"scenarios":[1],"gaps":[60],"steps":300,"base_seed":%d,"fault":{},"interventions":{}}`,
			bad:       `{"reps":-1,"fault":{},"interventions":{}}`,
			wantInBad: "reps",
		},
		{
			plural:    "explorations",
			valid:     `{"family":"cut-in","steps":400,"base_seed":%d,"fault":{},"interventions":{"driver":true},"boundary":{"axis":"trigger_gap","min":10,"max":60,"tolerance":20}}`,
			bad:       `{"family":"warp-drive","fault":{},"interventions":{}}`,
			wantInBad: "warp-drive",
		},
		{
			plural:    "reports",
			valid:     `{"artifacts":["table4"],"reps":1,"steps":300,"base_seed":%d}`,
			bad:       `{"artifacts":["table9"]}`,
			wantInBad: "table9",
		},
	}

	post := func(t *testing.T, path, body string) (*http.Response, errorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: response body is not JSON: %v", path, err)
		}
		resp.Body.Close()
		return resp, e
	}

	// Bad specs: 400 with the shared error body, naming the offense.
	for _, k := range kinds {
		path := "/v1/tasks/" + k.plural
		resp, e := post(t, path, k.bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s bad spec: status %d, want 400", path, resp.StatusCode)
		}
		if e.Error == "" || !strings.Contains(e.Error, k.wantInBad) {
			t.Errorf("POST %s bad spec: error %q does not name %q", path, e.Error, k.wantInBad)
		}
	}
	// Bad priority: 400 before admission.
	if resp, e := post(t, "/v1/tasks/jobs?priority=warp", fmt.Sprintf(kinds[0].valid, 1)); resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "priority") {
		t.Errorf("bad priority: status %d, error %q", resp.StatusCode, e.Error)
	}

	// Queue full: occupy the scheduler, fill the 1-slot queue, then
	// every kind must get 429 with a Retry-After hint.
	if _, err := d.SubmitTask(JobKind, slowSpec(100), ""); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the scheduler start the occupier
	if _, err := d.SubmitTask(JobKind, slowSpec(1), ""); err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		resp, e := post(t, "/v1/tasks/"+k.plural, fmt.Sprintf(k.valid, 2))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s queue-full: status %d, want 429", k.plural, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s queue-full: no Retry-After header", k.plural)
		}
		if e.Error == "" {
			t.Errorf("%s queue-full: empty error body", k.plural)
		}
	}

	// Draining: 503 for every kind.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, k := range kinds {
		resp, e := post(t, "/v1/tasks/"+k.plural, fmt.Sprintf(k.valid, 3))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s draining: status %d, want 503", k.plural, resp.StatusCode)
		}
		if e.Error == "" {
			t.Errorf("%s draining: empty error body", k.plural)
		}
	}
}

// TestHealthQueueAndCacheCounters pins the /healthz extensions:
// per-kind queue depth, priority-class backlog, and the cache
// hit/miss/eviction counters.
func TestHealthQueueAndCacheCounters(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 16, CacheEntries: 64})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	// One occupier per lane: the interactive one holds the only runner,
	// so the bulk one (a report) stays running while its runs wait.
	occ := submitOccupier(t, d, 60)
	boccSpec := smallReportSpec()
	boccSpec.BaseSeed = 8
	bocc, err := d.SubmitTask(ReportKind, ReportTask{Spec: boccSpec}, "")
	if err != nil {
		t.Fatal(err)
	}
	awaitRunning(t, d, bocc.ID)
	jv, err := d.SubmitTask(JobKind, smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	rv, err := d.SubmitTask(ReportKind, ReportTask{Spec: smallReportSpec()}, "")
	if err != nil {
		t.Fatal(err)
	}

	var health HealthResponse
	b, code := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if err := json.Unmarshal(b, &health); err != nil {
		t.Fatal(err)
	}
	if health.Queue.Depth != 2 || health.QueueDepth != 2 {
		t.Errorf("queue depth = %d/%d, want 2 (occupiers running, job+report queued)",
			health.Queue.Depth, health.QueueDepth)
	}
	if health.Queue.ByKind["jobs"] != 1 || health.Queue.ByKind["reports"] != 1 || health.Queue.ByKind["explorations"] != 0 {
		t.Errorf("queue by kind = %v", health.Queue.ByKind)
	}
	if health.Queue.ByClass[string(PriorityInteractive)] != 1 || health.Queue.ByClass[string(PriorityBulk)] != 1 {
		t.Errorf("queue by class = %v", health.Queue.ByClass)
	}
	if health.Tasks["jobs"][StatusQueued]+health.Tasks["jobs"][StatusRunning] != 2 {
		t.Errorf("tasks map = %v", health.Tasks)
	}
	if health.Cache.MaxSize != 64 {
		t.Errorf("cache stats missing from healthz: %+v", health.Cache)
	}

	finalViews(t, d, occ.ID, bocc.ID, jv.ID, rv.ID)
	b, _ = get(t, ts, "/healthz")
	if err := json.Unmarshal(b, &health); err != nil {
		t.Fatal(err)
	}
	// The four finished tasks executed real runs: the cache must have
	// recorded misses and the queue must be empty again.
	if health.Cache.Misses == 0 {
		t.Errorf("cache misses = 0 after cold runs: %+v", health.Cache)
	}
	if health.Queue.Depth != 0 {
		t.Errorf("queue depth after drain-down = %d", health.Queue.Depth)
	}
}

// TestTaskRoutes pins the one route set: /v1/tasks serves every kind's
// status and results, the retired per-kind routes are gone, unknown IDs
// 404, DELETE on a terminal task conflicts, and ?priority= overrides the
// kind's default class.
func TestTaskRoutes(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 2, QueueSize: 8, CacheEntries: 64})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	view, code := postJob(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if view.Kind != "job" || view.Priority != PriorityInteractive {
		t.Errorf("submitted view = %+v, want kind job, priority interactive", view)
	}
	waitDone(t, ts, view.ID)

	if _, code := get(t, ts, "/v1/tasks/"+view.ID); code != http.StatusOK {
		t.Errorf("task status = %d, want 200", code)
	}
	if _, code := get(t, ts, "/v1/tasks/"+view.ID+"/results"); code != http.StatusOK {
		t.Errorf("task results = %d, want 200", code)
	}
	// The per-kind routes are gone.
	if _, code := get(t, ts, "/v1/jobs/"+view.ID); code != http.StatusNotFound {
		t.Errorf("retired per-kind status route = %d, want 404", code)
	}
	if _, code := get(t, ts, "/v1/tasks/nope"); code != http.StatusNotFound {
		t.Errorf("unknown task = %d, want 404", code)
	}

	// DELETE of a finished task conflicts; of an unknown task, 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tasks/"+view.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE done task = %d, want 409", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/tasks/nope", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown task = %d, want 404", resp.StatusCode)
	}

	// Priority override via query parameter.
	b, _ := json.Marshal(smallSpec())
	resp, err = http.Post(ts.URL+"/v1/tasks/jobs?priority=bulk", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var bulk TaskView
	if err := json.NewDecoder(resp.Body).Decode(&bulk); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || bulk.Priority != PriorityBulk {
		t.Errorf("priority override: status %d, view %+v", resp.StatusCode, bulk)
	}
	waitDone(t, ts, bulk.ID)
}
