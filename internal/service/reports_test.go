package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adasim/internal/experiments"
	"adasim/internal/report"
)

// smallReportSpec is a fast report: one table, one rep, shortened runs.
func smallReportSpec() report.Spec {
	return report.Spec{Artifacts: []string{report.Table4}, Reps: 1, Steps: 300, BaseSeed: 7}
}

func postReport(t *testing.T, ts *httptest.Server, spec report.Spec) (TaskView, int) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/tasks/reports", "application/json", bytes.NewReader(b))
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

// waitReportDone polls the status endpoint until the report is terminal.
func waitReportDone(t *testing.T, ts *httptest.Server, id string) TaskView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		b, code := get(t, ts, "/v1/tasks/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %d for report %s: %s", code, id, b)
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
	t.Fatalf("report %s did not finish", id)
	return TaskView{}
}

// TestReportEndToEnd drives a report through the HTTP API and pins the
// service results to the in-process engine: same artifacts, same bytes.
func TestReportEndToEnd(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 4, QueueSize: 8, CacheEntries: 256})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	view, code := postReport(t, ts, smallReportSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitReportDone(t, ts, view.ID)
	if done.Status != StatusDone {
		t.Fatalf("report = %+v", done)
	}
	body, code := get(t, ts, "/v1/tasks/"+view.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results: status %d: %s", code, body)
	}

	eng := report.New(experiments.NewPool(0), nil)
	want, _, err := eng.Run(smallReportSpec())
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(bytes.TrimRight(body, "\n")) != string(wantBytes) {
		t.Error("service report results diverge from the in-process engine")
	}
	var res report.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Artifact(report.Table4) == nil || !strings.HasPrefix(res.Artifact(report.Table4).Content, "TABLE IV") {
		t.Errorf("missing or malformed table4 artifact: %+v", res.Artifacts)
	}
}

// TestReportDeterminismAcrossWorkerCountsAndCache asserts the report
// determinism contract over the service: byte-identical results on a
// 1-shard and an 8-shard pool, and on a warm resubmission served from
// the cache.
func TestReportDeterminismAcrossWorkerCountsAndCache(t *testing.T) {
	spec := report.Spec{Artifacts: []string{report.Table4, report.Fig6}, Reps: 1, Steps: 300, BaseSeed: 11}
	var encoded [][]byte
	for _, workers := range []int{1, 8} {
		d := newTestDispatcher(t, Config{Workers: workers, QueueSize: 4, CacheEntries: 256})
		ts := httptest.NewServer(NewServer(d))

		view, code := postReport(t, ts, spec)
		if code != http.StatusAccepted {
			ts.Close()
			t.Fatalf("workers=%d: submit status %d", workers, code)
		}
		if done := waitReportDone(t, ts, view.ID); done.Status != StatusDone {
			ts.Close()
			t.Fatalf("workers=%d: %+v", workers, done)
		}
		cold, code := get(t, ts, "/v1/tasks/"+view.ID+"/results")
		if code != http.StatusOK {
			ts.Close()
			t.Fatalf("workers=%d: results status %d", workers, code)
		}
		encoded = append(encoded, cold)

		// Warm resubmission on the same dispatcher: table runs come from
		// the cache, the figure run re-executes, bytes must not move.
		view2, _ := postReport(t, ts, spec)
		done2 := waitReportDone(t, ts, view2.ID)
		if done2.Status != StatusDone {
			ts.Close()
			t.Fatalf("workers=%d: warm report %+v", workers, done2)
		}
		if done2.CacheHits == 0 {
			t.Errorf("workers=%d: warm report reported no cache hits", workers)
		}
		warm, _ := get(t, ts, "/v1/tasks/"+view2.ID+"/results")
		if !bytes.Equal(cold, warm) {
			t.Errorf("workers=%d: cold and warm report results are not byte-identical", workers)
		}
		ts.Close()
	}
	if !bytes.Equal(encoded[0], encoded[1]) {
		t.Error("report results differ between 1-shard and 8-shard pools")
	}
}

// TestReportAfterJobsServedFromCache pins the headline reuse property
// over the service: campaign jobs covering Table VI's exact run grid
// warm the shared cache, so a subsequent report is served >= 90% from
// it.
func TestReportAfterJobsServedFromCache(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 4, QueueSize: 64, CacheEntries: 1 << 14})
	const steps = 300

	for _, c := range experiments.TableVICampaigns(experiments.TableVIRows(nil)) {
		view, err := d.SubmitTask(JobKind, JobSpec{
			Reps: 1, Steps: steps, BaseSeed: 1, Salt: c.Salt,
			Fault: c.Fault, Interventions: c.Interventions,
		}, "")
		if err != nil {
			t.Fatal(err)
		}
		<-d.TaskDone(view.ID)
	}

	view, err := d.SubmitTask(ReportKind, ReportTask{Spec: report.Spec{
		Artifacts: []string{report.Table6}, Reps: 1, Steps: steps, BaseSeed: 1,
	}}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-d.TaskDone(view.ID)
	final, _ := d.Task(view.ID)
	if final.Status != StatusDone {
		t.Fatalf("report = %+v", final)
	}
	if final.CompletedRuns == 0 {
		t.Fatal("report executed no runs")
	}
	if frac := float64(final.CacheHits) / float64(final.CompletedRuns); frac < 0.9 {
		t.Errorf("report after jobs served %.0f%% from cache (%d/%d), want >= 90%%",
			frac*100, final.CacheHits, final.CompletedRuns)
	}
}

// TestReportServesGoldenTable6 closes the loop on the acceptance
// criterion: the table6 artifact served by GET /v1/reports/{id}/results
// for the reduced-reps spec is byte-identical to the committed golden —
// which the report engine tests also pin against `cmd/tables -reps 2
// -only 6` output, since both are the same engine.
func TestReportServesGoldenTable6(t *testing.T) {
	if testing.Short() {
		t.Skip("full reduced-reps Table VI campaign (~1s)")
	}
	want, err := os.ReadFile(filepath.Join("..", "report", "testdata", "table6.txt.golden"))
	if err != nil {
		t.Fatalf("reading report golden: %v", err)
	}
	d := newTestDispatcher(t, Config{Workers: 4, QueueSize: 4, CacheEntries: 1 << 14})
	view, err := d.SubmitTask(ReportKind, ReportTask{Spec: report.Spec{Artifacts: []string{report.Table6}, Reps: 2, BaseSeed: 1}}, "")
	if err != nil {
		t.Fatal(err)
	}
	<-d.TaskDone(view.ID)
	res, ok, err := d.TaskResults(view.ID)
	if !ok || err != nil {
		t.Fatalf("results: ok=%v err=%v", ok, err)
	}
	a := res.(*report.Result).Artifact(report.Table6)
	if a == nil {
		t.Fatal("no table6 artifact")
	}
	if a.Content != string(want) {
		t.Error("service-served table6 diverges from the golden artifact")
	}
}

// TestReportHTTPErrors covers the report endpoints' error surface.
func TestReportHTTPErrors(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 16})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	if _, code := get(t, ts, "/v1/tasks/nope"); code != http.StatusNotFound {
		t.Errorf("unknown report status = %d, want 404", code)
	}
	if _, code := get(t, ts, "/v1/tasks/nope/results"); code != http.StatusNotFound {
		t.Errorf("unknown report results = %d, want 404", code)
	}
	if _, code := postReport(t, ts, report.Spec{Artifacts: []string{"table9"}}); code != http.StatusBadRequest {
		t.Errorf("unknown artifact status = %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/tasks/reports", "application/json",
		bytes.NewReader([]byte(`{"nonsense_field": 1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field spec status = %d, want 400", resp.StatusCode)
	}
}

// TestPostContentTypeEnforced pins the 415 contract on every POST
// endpoint: a non-JSON Content-Type is rejected up front with the
// standard error body shape, JSON (with parameters) and an absent
// Content-Type are accepted.
func TestPostContentTypeEnforced(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 8, CacheEntries: 16})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	for _, path := range []string{"/v1/tasks/jobs", "/v1/tasks/explorations", "/v1/tasks/reports"} {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("%s with text/plain: status %d, want 415", path, resp.StatusCode)
		}
		if resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s: 415 response content type = %q", path, resp.Header.Get("Content-Type"))
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: 415 body %q is not the standard error shape", path, body)
		}
		if !strings.Contains(e.Error, "text/plain") {
			t.Errorf("%s: 415 error %q does not name the offending type", path, e.Error)
		}
	}

	// JSON with a charset parameter and an absent Content-Type still
	// reach the decoder (and fail validation, not content negotiation).
	spec := smallReportSpec()
	b, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/tasks/reports", "application/json; charset=utf-8", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("json+charset submit: status %d, want 202", resp.StatusCode)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/tasks/reports", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Del("Content-Type")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Errorf("no-content-type submit: status %d, want 202", resp2.StatusCode)
	}
}

// TestReportRecordRetention pins the report-specific memory bound:
// finished reports (which retain full rendered artifacts) are evicted
// past MaxReportRecords while newer ones stay queryable.
func TestReportRecordRetention(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 2, QueueSize: 8, CacheEntries: 64, MaxReportRecords: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		spec := smallReportSpec()
		spec.BaseSeed = int64(100 + i) // distinct reports
		view, err := d.SubmitTask(ReportKind, ReportTask{Spec: spec}, "")
		if err != nil {
			t.Fatal(err)
		}
		<-d.TaskDone(view.ID)
		ids = append(ids, view.ID)
	}
	for i, id := range ids {
		_, ok := d.Task(id)
		if wantKept := i >= 2; ok != wantKept {
			t.Errorf("report %d (%s) retained = %v, want %v", i, id, ok, wantKept)
		}
	}
	if counts := d.TaskCounts()[ReportKind.Plural]; counts[StatusDone] != 2 {
		t.Errorf("retained done reports = %d, want 2 (%v)", counts[StatusDone], counts)
	}
}

// TestHealthReportsCounts checks that /healthz carries report counters.
func TestHealthReportsCounts(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 2, QueueSize: 8, CacheEntries: 64})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	view, code := postReport(t, ts, smallReportSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitReportDone(t, ts, view.ID)

	var health HealthResponse
	b, _ := get(t, ts, "/healthz")
	if err := json.Unmarshal(b, &health); err != nil {
		t.Fatal(err)
	}
	if health.Reports[StatusDone] != 1 {
		t.Errorf("healthz reports = %v, want one done", health.Reports)
	}
}
