package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adasim/internal/core"
	"adasim/internal/explore"
)

// boundarySpec is a fast hazard-boundary search over the generated
// cut-in family: fault-free with only driver reactions, the minimum safe
// merge trigger gap sits inside [10, 60] (verified by the Bracketed
// assertion below), so the bisection is exercised end to end.
func boundarySpec() explore.Spec {
	return explore.Spec{
		Family:        "cut-in",
		Steps:         2500,
		BaseSeed:      5,
		Interventions: core.InterventionSet{Driver: true},
		Fixed:         map[string]float64{"cutin_gap": 25},
		Boundary: &explore.BoundarySpec{
			Axis: "trigger_gap", Min: 10, Max: 60, Tolerance: 2,
		},
	}
}

func postExploration(t *testing.T, ts *httptest.Server, spec explore.Spec) (TaskView, int) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/tasks/explorations", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view TaskView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return view, resp.StatusCode
}

func waitExplorationDone(t *testing.T, ts *httptest.Server, id string) TaskView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		b, code := get(t, ts, "/v1/tasks/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %d for exploration %s: %s", code, id, b)
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
	t.Fatalf("exploration %s did not finish", id)
	return TaskView{}
}

// TestExplorationEndToEnd is the tentpole acceptance test: a boundary
// search over a generated cut-in family submitted twice over the HTTP
// API returns byte-identical results, with the repeat served >= 90% from
// the content-addressed result cache.
func TestExplorationEndToEnd(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 4, QueueSize: 8, CacheEntries: 256})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	view1, code := postExploration(t, ts, boundarySpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", code)
	}
	done1 := waitExplorationDone(t, ts, view1.ID)
	if done1.Status != StatusDone {
		t.Fatalf("exploration 1 = %+v", done1)
	}
	results1, code := get(t, ts, "/v1/tasks/"+view1.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results 1: status %d: %s", code, results1)
	}
	var report explore.Report
	if err := json.Unmarshal(results1, &report); err != nil {
		t.Fatal(err)
	}
	if report.Boundary == nil || !report.Boundary.Bracketed || !report.Boundary.Converged {
		t.Fatalf("boundary search did not bracket a frontier: %+v", report.Boundary)
	}
	if report.Boundary.Hi-report.Boundary.Lo > 2 {
		t.Errorf("bracket [%v, %v] wider than the 2 m tolerance", report.Boundary.Lo, report.Boundary.Hi)
	}
	if report.TotalProbes != len(report.Probes) || report.TotalProbes != done1.CompletedRuns {
		t.Errorf("probe accounting: report %d/%d, view %d",
			report.TotalProbes, len(report.Probes), done1.CompletedRuns)
	}

	// The repeat must be served >= 90% from the result cache (it is
	// deterministic, so every probe repeats) with byte-identical results.
	view2, code := postExploration(t, ts, boundarySpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: status %d", code)
	}
	if view2.SpecHash != view1.SpecHash {
		t.Errorf("same spec hashed differently: %s vs %s", view1.SpecHash, view2.SpecHash)
	}
	done2 := waitExplorationDone(t, ts, view2.ID)
	if done2.Status != StatusDone {
		t.Fatalf("exploration 2 = %+v", done2)
	}
	if done2.CompletedRuns == 0 ||
		float64(done2.CacheHits) < 0.9*float64(done2.CompletedRuns) {
		t.Errorf("repeat served %d/%d probes from cache, want >= 90%%",
			done2.CacheHits, done2.CompletedRuns)
	}
	results2, code := get(t, ts, "/v1/tasks/"+view2.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results 2: status %d", code)
	}
	if !bytes.Equal(results1, results2) {
		t.Errorf("repeated exploration results are not byte-identical:\n%s\nvs\n%s", results1, results2)
	}
}

// TestExplorationDeterminismAcrossWorkerCounts mirrors the campaign
// service determinism tests: the same exploration spec yields
// byte-identical results JSON on a 1-shard pool and an 8-shard pool,
// regardless of cache warmth.
func TestExplorationDeterminismAcrossWorkerCounts(t *testing.T) {
	var encoded [][]byte
	for _, workers := range []int{1, 8} {
		d := newTestDispatcher(t, Config{Workers: workers, QueueSize: 4, CacheEntries: 64})
		ts := httptest.NewServer(NewServer(d))
		view, code := postExploration(t, ts, boundarySpec())
		if code != http.StatusAccepted {
			ts.Close()
			t.Fatalf("workers=%d: submit status %d", workers, code)
		}
		if done := waitExplorationDone(t, ts, view.ID); done.Status != StatusDone {
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
		t.Error("exploration results differ between 1-worker and 8-worker pools")
	}
}

func TestExplorationHTTPErrors(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 16})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	if _, code := get(t, ts, "/v1/tasks/nope"); code != http.StatusNotFound {
		t.Errorf("unknown exploration status = %d, want 404", code)
	}
	if _, code := get(t, ts, "/v1/tasks/nope/results"); code != http.StatusNotFound {
		t.Errorf("unknown exploration results = %d, want 404", code)
	}
	bad := boundarySpec()
	bad.Family = "warp-drive"
	if _, code := postExploration(t, ts, bad); code != http.StatusBadRequest {
		t.Errorf("unknown-family spec status = %d, want 400", code)
	}
	ml := boundarySpec()
	ml.Interventions.ML = true
	if _, code := postExploration(t, ts, ml); code != http.StatusBadRequest {
		t.Errorf("ML spec status = %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/tasks/explorations", "application/json",
		bytes.NewReader([]byte(`{"warp_factor": 9}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field spec status = %d, want 400", resp.StatusCode)
	}
}

// TestScenariosContentType pins the catalogue's Content-Type header.
func TestScenariosContentType(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 1, CacheEntries: 16})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", got)
	}
}

// TestScenariosGolden pins the extended catalogue wire format (scripted
// scenarios + parametric families and their parameter spaces). If this
// fails, the catalogue API changed: bump it deliberately (regenerate
// with -update) or fix the regression.
func TestScenariosGolden(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 1, CacheEntries: 16})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()
	got, code := get(t, ts, "/v1/scenarios")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var resp ScenariosResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Families) != 3 {
		t.Errorf("catalogue lists %d families, want 3", len(resp.Families))
	}

	path := filepath.Join("testdata", "scenarios.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scenario catalogue wire format drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplorationAndJobsShareQueue submits a job and an exploration and
// checks both finish and both appear in /healthz counters — one FIFO,
// one shard pool, one cache.
func TestExplorationAndJobsShareQueue(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 2, QueueSize: 8, CacheEntries: 64})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	jview, code := postJob(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("job submit: %d", code)
	}
	spec := boundarySpec()
	spec.Steps = 400 // keep it quick; bracketing not needed here
	xview, code := postExploration(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("exploration submit: %d", code)
	}
	if jdone := waitDone(t, ts, jview.ID); jdone.Status != StatusDone {
		t.Fatalf("job = %+v", jdone)
	}
	if xdone := waitExplorationDone(t, ts, xview.ID); xdone.Status != StatusDone {
		t.Fatalf("exploration = %+v", xdone)
	}
	var health HealthResponse
	b, _ := get(t, ts, "/healthz")
	if err := json.Unmarshal(b, &health); err != nil {
		t.Fatal(err)
	}
	if health.Jobs[StatusDone] != 1 || health.Explorations[StatusDone] != 1 {
		t.Errorf("healthz counts = jobs %v explorations %v", health.Jobs, health.Explorations)
	}
}

// TestDrainFinishesQueuedExplorations mirrors the job drain contract for
// explorations.
func TestDrainFinishesQueuedExplorations(t *testing.T) {
	d, err := NewDispatcher(Config{Workers: 2, QueueSize: 4, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	spec := boundarySpec()
	spec.Steps = 400
	if _, err := d.SubmitTask(ExplorationKind, ExplorationTask{Spec: spec}, ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := d.SubmitTask(ExplorationKind, ExplorationTask{Spec: spec}, ""); err != ErrDraining {
		t.Errorf("post-drain submit err = %v, want ErrDraining", err)
	}
	if counts := d.TaskCounts()[ExplorationKind.Plural]; counts[StatusDone] != 1 {
		t.Errorf("done explorations after drain = %v", counts)
	}
}
