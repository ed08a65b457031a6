package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adasim/internal/experiments"
	"adasim/internal/explore"
	"adasim/internal/report"
	"adasim/internal/store"
)

// haltDispatcher simulates a crash: journal writes stop, in-flight work
// is abandoned between runs, goroutines are cleaned up. The journal on
// disk is left exactly as a killed process would leave it.
func haltDispatcher(t *testing.T, d *Dispatcher) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.Halt(ctx); err != nil {
		t.Fatalf("halt: %v", err)
	}
}

// fetchResults reads a finished task's results endpoint byte-exactly.
func fetchResults(t *testing.T, d *Dispatcher, id string) []byte {
	t.Helper()
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()
	b, code := get(t, ts, "/v1/tasks/"+id+"/results")
	if code != 200 {
		t.Fatalf("results %s: status %d: %s", id, code, b)
	}
	return b
}

// TestKillAndRestartRecovery is the acceptance test of the tentpole: a
// mixed workload (jobs, an exploration, a report) is submitted to a
// journaled dispatcher, the dispatcher is torn down mid-flight, a new
// one is booted on the same journal and cache directories, and every
// task — finished before the crash or recovered after it — produces
// results byte-identical to an uninterrupted dispatcher running the
// same specs. Recovered work overlapping pre-crash work is served from
// the content-addressed cache.
func TestKillAndRestartRecovery(t *testing.T) {
	journalDir := t.TempDir()
	cacheDir := t.TempDir()

	// j1/j3 overlap (same scenario+seed; j3 adds reps), x1 and r1 add the
	// other two kinds. j2 is the slow occupier torn down mid-flight.
	j1Spec := smallSpec()
	j1Spec.Reps = 2
	j3Spec := smallSpec()
	j3Spec.Reps = 4
	x1Spec := explore.Spec{
		Family:        "cut-in",
		Steps:         800,
		BaseSeed:      5,
		Interventions: smallSpec().Interventions,
		Fixed:         map[string]float64{"cutin_gap": 25},
		Boundary:      &explore.BoundarySpec{Axis: "trigger_gap", Min: 10, Max: 60, Tolerance: 10},
	}
	r1Spec := report.Spec{Artifacts: []string{report.Table4}, Reps: 1, Steps: 300, BaseSeed: 7}

	// Baseline: the same workload, uninterrupted, no journal, cold cache.
	baseline := map[string][]byte{}
	{
		d := newTestDispatcher(t, Config{Workers: 2, QueueSize: 16, CacheEntries: 256})
		for name, submit := range map[string]func() (TaskView, error){
			"j1": func() (TaskView, error) { return d.SubmitTask(JobKind, j1Spec, "") },
			"j3": func() (TaskView, error) { return d.SubmitTask(JobKind, j3Spec, "") },
			"x1": func() (TaskView, error) { return d.SubmitTask(ExplorationKind, ExplorationTask{Spec: x1Spec}, "") },
			"r1": func() (TaskView, error) { return d.SubmitTask(ReportKind, ReportTask{Spec: r1Spec}, "") },
		} {
			v, err := submit()
			if err != nil {
				t.Fatalf("baseline %s: %v", name, err)
			}
			if final := finalViews(t, d, v.ID)[v.ID]; final.Status != StatusDone {
				t.Fatalf("baseline %s: %+v", name, final)
			}
			baseline[name] = fetchResults(t, d, v.ID)
		}
	}

	// Pre-seed j1's runs into cacheDir through the segment store: the
	// crashing dispatcher must serve every one of them from disk, and
	// the post-crash dispatcher then recovers from the same store.
	plan, err := j1Spec.Normalized().Plan()
	if err != nil {
		t.Fatal(err)
	}
	seedReqs := make([]experiments.RunRequest, len(plan))
	for i, pr := range plan {
		seedReqs[i] = experiments.RunRequest{Key: pr.Key, Opts: pr.Opts}
	}
	seeded, err := experiments.NewPool(2).Execute(seedReqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	seedCache, err := store.NewResultCache(len(plan), cacheDir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range plan {
		seedCache.Put(pr.CacheKey, seeded[i].Outcome)
	}
	seedCache.Close()

	// The crashing dispatcher: submit everything, let j1 finish (seeding
	// the disk cache), then halt while j2 occupies the scheduler and
	// j3/x1/r1 sit in the queue.
	cfg := Config{Workers: 1, QueueSize: 16, CacheEntries: 256,
		CacheDir: cacheDir, JournalDir: journalDir}
	d1, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := d1.SubmitTask(JobKind, j1Spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if final := finalViews(t, d1, j1.ID)[j1.ID]; final.Status != StatusDone {
		t.Fatalf("j1 pre-crash: %+v", final)
	}
	// Every j1 run was served from the pre-seeded segment store.
	if hits := finalViews(t, d1, j1.ID)[j1.ID].CacheHits; hits != len(plan) {
		t.Fatalf("j1 cache hits = %d, want %d (the pre-seed should have served it)", hits, len(plan))
	}
	j2 := submitOccupier(t, d1, 60)
	j3, err := d1.SubmitTask(JobKind, j3Spec, "")
	if err != nil {
		t.Fatal(err)
	}
	x1, err := d1.SubmitTask(ExplorationKind, ExplorationTask{Spec: x1Spec}, "")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := d1.SubmitTask(ReportKind, ReportTask{Spec: r1Spec}, "")
	if err != nil {
		t.Fatal(err)
	}
	haltDispatcher(t, d1)

	// Restart on the same directories: j2, j3, x1, r1 must come back
	// under their original IDs and run to completion; j1 is terminal in
	// the journal and must NOT be re-queued.
	d2 := newTestDispatcher(t, cfg)
	rec := d2.Recovery()
	if rec == nil {
		t.Fatal("no recovery stats after journaled boot")
	}
	if rec.RecoveredTasks != 4 {
		t.Fatalf("RecoveredTasks = %d, want 4 (stats: %+v)", rec.RecoveredTasks, rec)
	}
	if rec.TerminalTasks != 1 {
		t.Fatalf("TerminalTasks = %d, want 1 (j1)", rec.TerminalTasks)
	}
	if rec.FailedReplays != 0 || rec.CorruptRecords != 0 {
		t.Fatalf("replay not clean: %+v", rec)
	}
	if _, ok := d2.Task(j1.ID); ok {
		t.Fatalf("terminal task %s re-queued", j1.ID)
	}

	recovered := map[string]TaskView{"j2": j2, "j3": j3, "x1": x1, "r1": r1}
	views := finalViews(t, d2, j2.ID, j3.ID, x1.ID, r1.ID)
	for name, v := range recovered {
		if got := views[v.ID]; got.Status != StatusDone {
			t.Fatalf("recovered %s (%s): %+v", name, v.ID, got)
		}
	}

	// Byte-identity: the recovered run of every spec matches the
	// uninterrupted baseline. (j2 has no baseline entry — it is the
	// occupier — but j3, x1, r1 and the pre-crash j1 all do.)
	if got := string(fetchResults(t, d2, j3.ID)); got != string(baseline["j3"]) {
		t.Error("recovered j3 results differ from uninterrupted baseline")
	}
	if got := string(fetchResults(t, d2, x1.ID)); got != string(baseline["x1"]) {
		t.Error("recovered x1 results differ from uninterrupted baseline")
	}
	if got := string(fetchResults(t, d2, r1.ID)); got != string(baseline["r1"]) {
		t.Error("recovered r1 results differ from uninterrupted baseline")
	}

	// The recovery was mostly cache hits where work overlapped: j3
	// shares j1's first two runs via the disk cache.
	if got := views[j3.ID].CacheHits; got < 2 {
		t.Errorf("recovered j3 cache hits = %d, want >= 2 (disk cache should have served j1's runs)", got)
	}

	// And the journal is quiescent again: everything terminal, nothing
	// live, bounded on disk.
	js, ok := d2.JournalStats()
	if !ok {
		t.Fatal("journal stats unavailable on journaled dispatcher")
	}
	if js.LiveTasks != 0 {
		t.Fatalf("LiveTasks = %d after all tasks finished, want 0", js.LiveTasks)
	}
	if js.AppendErrors != 0 {
		t.Fatalf("AppendErrors = %d, want 0", js.AppendErrors)
	}
}

// TestRecoveredSubmissionOrder pins that replay preserves original
// submission order: recovered tasks drain in the same order they were
// accepted (within a priority class).
func TestRecoveredSubmissionOrder(t *testing.T) {
	journalDir := t.TempDir()
	cfg := Config{Workers: 1, QueueSize: 16, CacheEntries: 64, JournalDir: journalDir}
	d1, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the scheduler so the numbered jobs stay queued, then halt.
	submitOccupier(t, d1, 60)
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		spec := smallSpec()
		spec.BaseSeed = seed
		v, err := d1.SubmitTask(JobKind, spec, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	haltDispatcher(t, d1)

	d2 := newTestDispatcher(t, cfg)
	views := finalViews(t, d2, ids...)
	for i := 1; i < len(ids); i++ {
		prev, cur := views[ids[i-1]], views[ids[i]]
		if prev.FinishedAt == nil || cur.StartedAt == nil {
			t.Fatalf("missing timestamps: %+v %+v", prev, cur)
		}
		if cur.StartedAt.Before(*prev.FinishedAt) {
			t.Errorf("task %s started before its predecessor %s finished: order not preserved",
				cur.ID, prev.ID)
		}
	}

	// New submissions must not collide with recovered IDs: the sequence
	// floor was restored from the journal.
	v, err := d2.SubmitTask(JobKind, smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if v.ID == id {
			t.Fatalf("new submission reused recovered ID %s", id)
		}
	}
}

// TestRecoveryCountsCorruptRecord pins the journal's frame CRC end to
// end: a journaled submission whose spec took a flipped byte that still
// decodes (base_seed 102 -> 103) is counted under
// RecoveryStats.CorruptRecords and not recovered, while the submission
// beside it is.
func TestRecoveryCountsCorruptRecord(t *testing.T) {
	journalDir := t.TempDir()
	cfg := Config{Workers: 1, QueueSize: 16, CacheEntries: 64, JournalDir: journalDir}
	d1, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitOccupier(t, d1, 60)
	var ids []string
	for seed := int64(101); seed <= 102; seed++ {
		spec := smallSpec()
		spec.BaseSeed = seed
		v, err := d1.SubmitTask(JobKind, spec, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	haltDispatcher(t, d1)

	segs, err := filepath.Glob(filepath.Join(journalDir, "journal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("journal segments = %v %v, want one", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(b, []byte(`"base_seed":102`))
	if at < 0 {
		t.Fatalf("second submission not found in the journal")
	}
	b[at+len(`"base_seed":102`)-1] ^= 0x01
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer haltDispatcher(t, d2)
	rec := d2.Recovery()
	if rec == nil || rec.CorruptRecords != 1 || rec.RecoveredTasks != 2 {
		t.Fatalf("recovery = %+v, want 1 corrupt record and 2 recovered tasks", rec)
	}
	if _, ok := d2.Task(ids[0]); !ok {
		t.Errorf("intact submission %s was not recovered", ids[0])
	}
	if v, ok := d2.Task(ids[1]); ok {
		t.Errorf("corrupt submission %s was recovered: %+v", ids[1], v)
	}
}

// TestSubmitBodyTooLarge pins the request-size limit: a submission body
// over MaxSpecBytes is rejected with 413 before it is decoded.
func TestSubmitBodyTooLarge(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 16})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	huge := `{"pad":"` + strings.Repeat("x", MaxSpecBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/tasks/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestHealthzJournalFields pins the health surface: journal and
// recovery stats appear on /healthz exactly when journaling is enabled.
func TestHealthzJournalFields(t *testing.T) {
	plain := newTestDispatcher(t, Config{Workers: 1, QueueSize: 4, CacheEntries: 16})
	ts := httptest.NewServer(NewServer(plain))
	b, code := get(t, ts, "/healthz")
	ts.Close()
	if code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if strings.Contains(string(b), `"journal"`) {
		t.Fatal("journal stats served without journaling enabled")
	}

	journaled := newTestDispatcher(t, Config{Workers: 1, QueueSize: 4,
		CacheEntries: 16, JournalDir: t.TempDir()})
	if _, err := journaled.SubmitTask(JobKind, smallSpec(), ""); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewServer(journaled))
	defer ts2.Close()
	b, code = get(t, ts2, "/healthz")
	if code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	var health HealthResponse
	if err := json.Unmarshal(b, &health); err != nil {
		t.Fatal(err)
	}
	if health.Journal == nil {
		t.Fatal("journal stats missing with journaling enabled")
	}
	if health.Journal.Appends == 0 {
		t.Fatalf("journal appends = 0 after a submission: %+v", health.Journal)
	}
	if health.Recovery == nil {
		t.Fatal("recovery stats missing with journaling enabled")
	}
}
