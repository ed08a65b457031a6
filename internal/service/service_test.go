package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/fi"
	"adasim/internal/fleet"
	"adasim/internal/scenario"
)

// smallSpec is a fast job: one scenario, one gap, shortened runs.
func smallSpec() JobSpec {
	return JobSpec{
		Scenarios:     []scenario.ID{scenario.S1},
		Gaps:          []float64{60},
		Reps:          1,
		Steps:         300,
		BaseSeed:      7,
		Fault:         fi.DefaultParams(fi.TargetRelDistance),
		Interventions: core.InterventionSet{Driver: true, SafetyCheck: true},
	}
}

// TaskResults returns the wire-shaped results of a finished task: the
// kind's Wire marshal applied to the result, a pure function of the
// normalized spec. Only tests read results this way; the server streams
// them through the same taskResult.
func (d *Dispatcher) TaskResults(id string) (any, bool, error) {
	result, hash, kind, _, ok, err := d.taskResult(id)
	if !ok || err != nil {
		return nil, ok, err
	}
	return kind.Wire(hash, result), true, nil
}

func newTestDispatcher(t *testing.T, cfg Config) *Dispatcher {
	t.Helper()
	d, err := NewDispatcher(cfg)
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

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (TaskView, int) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/tasks/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view TaskView
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
	}
	return view, resp.StatusCode
}

func get(t *testing.T, ts *httptest.Server, path string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.StatusCode
}

// waitDone polls the status endpoint until the job is terminal.
func waitDone(t *testing.T, ts *httptest.Server, id string) TaskView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		b, code := get(t, ts, "/v1/tasks/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %d for job %s: %s", code, id, b)
		}
		var view TaskView
		if err := json.Unmarshal(b, &view); err != nil {
			t.Fatal(err)
		}
		if view.Status == StatusDone || view.Status == StatusFailed {
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return TaskView{}
}

// TestEndToEndCacheHit is the tentpole acceptance test: submitting the
// same spec twice over the HTTP API serves the second job entirely from
// the cache (observable in the cache-hit counters) with byte-identical
// results.
func TestEndToEndCacheHit(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 4, QueueSize: 8, CacheEntries: 256})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	view1, code := postJob(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", code)
	}
	done1 := waitDone(t, ts, view1.ID)
	if done1.Status != StatusDone {
		t.Fatalf("job 1 = %+v", done1)
	}
	if done1.CacheHits != 0 {
		t.Errorf("cold job reported %d cache hits", done1.CacheHits)
	}
	results1, code := get(t, ts, "/v1/tasks/"+view1.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results 1: status %d: %s", code, results1)
	}

	view2, code := postJob(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: status %d", code)
	}
	if view2.ID == view1.ID {
		t.Fatalf("resubmission reused job id %s", view1.ID)
	}
	if view2.SpecHash != view1.SpecHash {
		t.Errorf("same spec hashed differently: %s vs %s", view1.SpecHash, view2.SpecHash)
	}
	done2 := waitDone(t, ts, view2.ID)
	if done2.Status != StatusDone {
		t.Fatalf("job 2 = %+v", done2)
	}
	if done2.CacheHits != done2.TotalRuns || done2.TotalRuns == 0 {
		t.Errorf("warm job cache hits = %d of %d runs, want all", done2.CacheHits, done2.TotalRuns)
	}
	results2, code := get(t, ts, "/v1/tasks/"+view2.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results 2: status %d", code)
	}
	if !bytes.Equal(results1, results2) {
		t.Errorf("cached results are not byte-identical:\n%s\nvs\n%s", results1, results2)
	}

	var health HealthResponse
	b, _ := get(t, ts, "/healthz")
	if err := json.Unmarshal(b, &health); err != nil {
		t.Fatal(err)
	}
	if health.Cache.Hits < int64(done2.TotalRuns) {
		t.Errorf("healthz cache hits = %d, want >= %d", health.Cache.Hits, done2.TotalRuns)
	}
}

// TestDeterminismAcrossWorkerCounts asserts the determinism-under-
// concurrency contract: the same spec yields byte-identical result
// encodings on a 1-shard pool and an 8-shard pool.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	spec := JobSpec{
		Reps:          1,
		Steps:         200,
		BaseSeed:      11,
		Salt:          2,
		Fault:         fi.DefaultParams(fi.TargetMixed),
		Interventions: core.InterventionSet{Driver: true},
	}
	var encoded [][]byte
	for _, workers := range []int{1, 8} {
		d := newTestDispatcher(t, Config{Workers: workers, QueueSize: 4, CacheEntries: 64})
		ts := httptest.NewServer(NewServer(d))
		view, code := postJob(t, ts, spec)
		if code != http.StatusAccepted {
			ts.Close()
			t.Fatalf("workers=%d: submit status %d", workers, code)
		}
		if done := waitDone(t, ts, view.ID); done.Status != StatusDone {
			ts.Close()
			t.Fatalf("workers=%d: %+v", workers, done)
		}
		b, code := get(t, ts, "/v1/tasks/"+view.ID+"/results")
		if code != http.StatusOK {
			ts.Close()
			t.Fatalf("workers=%d: results status %d", workers, code)
		}
		encoded = append(encoded, b)
		ts.Close()
	}
	if !bytes.Equal(encoded[0], encoded[1]) {
		t.Error("results differ between 1-worker and 8-worker pools")
	}
}

// TestServiceMatchesRunMatrix pins the service to the batch engine: a
// job spec covering the default matrix must reproduce RunMatrix exactly
// (same seeds, same outcomes, same order).
func TestServiceMatchesRunMatrix(t *testing.T) {
	fault := fi.DefaultParams(fi.TargetRelDistance)
	iv := core.InterventionSet{Driver: true}
	const salt = 5

	want, err := experiments.RunMatrix(
		experiments.Config{Reps: 1, Steps: 200, BaseSeed: 9}, fault, iv, salt)
	if err != nil {
		t.Fatal(err)
	}

	d := newTestDispatcher(t, Config{Workers: 4, QueueSize: 4, CacheEntries: 64})
	view, err := d.SubmitTask(JobKind, JobSpec{
		Reps: 1, Steps: 200, BaseSeed: 9, Salt: salt,
		Fault: fault, Interventions: iv,
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-d.TaskDone(view.ID)
	got, ok, err := d.TaskResults(view.ID)
	if !ok || err != nil {
		t.Fatalf("results: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got.(ResultsResponse).Results, want) {
		t.Error("service results diverge from RunMatrix")
	}
}

func TestPartialOverlapReusesRuns(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 2, QueueSize: 4, CacheEntries: 64})
	one := smallSpec()
	v1, err := d.SubmitTask(JobKind, one, "")
	if err != nil {
		t.Fatal(err)
	}
	<-d.TaskDone(v1.ID)

	two := smallSpec()
	two.Reps = 2 // different spec hash, one overlapping run
	v2, err := d.SubmitTask(JobKind, two, "")
	if err != nil {
		t.Fatal(err)
	}
	if v2.SpecHash == v1.SpecHash {
		t.Fatal("different specs share a hash")
	}
	<-d.TaskDone(v2.ID)
	view, _ := d.Task(v2.ID)
	if view.CacheHits != 1 {
		t.Errorf("overlapping job cache hits = %d, want 1", view.CacheHits)
	}
}

func TestQueueFullAndDraining(t *testing.T) {
	d, err := NewDispatcher(Config{Workers: 1, QueueSize: 1, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Fault-free runs never terminate early, so this job reliably keeps
	// the single worker busy (~1 s of work against a 20 ms sleep) while
	// the queue fills behind it.
	slow := smallSpec()
	slow.Fault = fi.Params{}
	slow.Steps = 8000
	slow.Reps = 200
	if _, err := d.SubmitTask(JobKind, slow, ""); err != nil { // picked up by the scheduler
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the scheduler start job 1
	b := smallSpec()
	b.BaseSeed = 2
	if _, err := d.SubmitTask(JobKind, b, ""); err != nil { // fills the queue
		t.Fatal(err)
	}
	c := smallSpec()
	c.BaseSeed = 3
	if _, err := d.SubmitTask(JobKind, c, ""); err != ErrQueueFull {
		t.Errorf("third submit err = %v, want ErrQueueFull", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := d.SubmitTask(JobKind, smallSpec(), ""); err != ErrDraining {
		t.Errorf("post-drain submit err = %v, want ErrDraining", err)
	}
	// Drain must have finished the queued jobs, not dropped them.
	counts := d.TaskCounts()[JobKind.Plural]
	if counts[StatusDone] != 2 {
		t.Errorf("done jobs after drain = %d, want 2 (%v)", counts[StatusDone], counts)
	}
}

func TestHTTPErrors(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 16})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	if _, code := get(t, ts, "/v1/tasks/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if _, code := get(t, ts, "/v1/tasks/nope/results"); code != http.StatusNotFound {
		t.Errorf("unknown job results = %d, want 404", code)
	}
	bad := smallSpec()
	bad.Interventions.ML = true
	if _, code := postJob(t, ts, bad); code != http.StatusBadRequest {
		t.Errorf("ML spec status = %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/tasks/jobs", "application/json",
		bytes.NewReader([]byte(`{"nonsense_field": 1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field spec status = %d, want 400", resp.StatusCode)
	}

	// Results of a queued-or-running job conflict rather than 404.
	view, code := postJob(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	if _, code := get(t, ts, "/v1/tasks/"+view.ID+"/results"); code != http.StatusOK && code != http.StatusConflict {
		t.Errorf("in-flight results = %d, want 409 (or 200 if already done)", code)
	}
	waitDone(t, ts, view.ID)
}

// TestJobRecordRetention pins the memory bound: once more than
// MaxJobRecords jobs have finished, the oldest records (and their result
// slices) are evicted while newer ones stay queryable.
func TestJobRecordRetention(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 2, QueueSize: 8, CacheEntries: 64, MaxJobRecords: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		spec := smallSpec()
		spec.BaseSeed = int64(100 + i) // distinct jobs, nothing cached
		view, err := d.SubmitTask(JobKind, spec, "")
		if err != nil {
			t.Fatal(err)
		}
		<-d.TaskDone(view.ID)
		ids = append(ids, view.ID)
	}
	for i, id := range ids {
		_, ok := d.Task(id)
		if wantKept := i >= 2; ok != wantKept {
			t.Errorf("job %d (%s) retained = %v, want %v", i, id, ok, wantKept)
		}
	}
	counts := d.TaskCounts()[JobKind.Plural]
	if counts[StatusDone] != 2 {
		t.Errorf("retained done jobs = %d, want 2 (%v)", counts[StatusDone], counts)
	}
}

func TestScenariosEndpoint(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 1, CacheEntries: 16})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()
	b, code := get(t, ts, "/v1/scenarios")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var resp ScenariosResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Scenarios) != 6 || resp.Scenarios[0].Name != "S1" {
		t.Errorf("scenario catalogue = %+v", resp)
	}
	if !reflect.DeepEqual(resp.DefaultGaps, scenario.InitialGaps()) {
		t.Errorf("default gaps = %v", resp.DefaultGaps)
	}
}

// TestDrainWithAttachedWorkers: draining a dispatcher with a worker
// parked in a long poll completes promptly, and the parked lease is
// released with ErrHubClosed so the worker backs off and exits.
func TestDrainWithAttachedWorkers(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 16})
	w, err := d.hub.Register("parked", 1)
	if err != nil {
		t.Fatal(err)
	}
	leaseErr := make(chan error, 1)
	go func() {
		_, err := d.hub.Lease(w, 10*time.Second)
		leaseErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the poll park

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain with attached worker: %v", err)
	}
	select {
	case err := <-leaseErr:
		if !errors.Is(err, fleet.ErrHubClosed) {
			t.Errorf("parked lease err = %v, want ErrHubClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("parked lease never released by drain")
	}
	// A worker arriving after drain is refused outright.
	if _, err := d.hub.Register("late", 1); !errors.Is(err, fleet.ErrHubClosed) {
		t.Errorf("post-drain register err = %v, want ErrHubClosed", err)
	}
}
