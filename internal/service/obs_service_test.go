package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// obsTestServer boots a fully-featured dispatcher (disk cache + journal,
// so every metric family registers) behind an httptest server.
func obsTestServer(t *testing.T) (*Dispatcher, *httptest.Server) {
	t.Helper()
	d := newTestDispatcher(t, Config{
		Workers:      4,
		QueueSize:    32,
		CacheEntries: 256,
		CacheDir:     t.TempDir(),
		JournalDir:   t.TempDir(),
	})
	ts := httptest.NewServer(NewServer(d))
	t.Cleanup(ts.Close)
	return d, ts
}

// parseMetrics reads a Prometheus text exposition into a value map keyed
// by the full series identifier (name plus label set), validating the
// line grammar as it goes.
func parseMetrics(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	vals := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: bad value: %v", line, err)
		}
		series := line[:i]
		if _, dup := vals[series]; dup {
			t.Fatalf("duplicate series %q", series)
		}
		vals[series] = v
	}
	return vals
}

// TestMetricsExpositionGolden pins the full series surface of GET
// /metrics — every metric name, label combination, and histogram bucket
// boundary the service exposes when running with a disk cache and a
// journal — against a committed golden list. Values are stripped (they
// vary run to run); the series set must not drift silently. Regenerate
// with -update.
func TestMetricsExpositionGolden(t *testing.T) {
	_, ts := obsTestServer(t)

	view, code := postJob(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if done := waitDone(t, ts, view.ID); done.Status != StatusDone {
		t.Fatalf("job = %+v", done)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body := make([]byte, 0, 1<<16)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		body = append(body, sc.Bytes()...)
		body = append(body, '\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	vals := parseMetrics(t, body)
	series := make([]string, 0, len(vals))
	for s := range vals {
		series = append(series, s)
	}
	sort.Strings(series)
	got := strings.Join(series, "\n") + "\n"

	path := filepath.Join("testdata", "metrics_series.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("metrics series set drifted from %s (run with -update after intentional changes)\ngot:\n%s", path, got)
	}

	// A few semantic spot checks on top of the set comparison.
	if v := vals[`adasim_tasks_finished_total{kind="jobs",status="done"}`]; v < 1 {
		t.Errorf("finished{jobs,done} = %v, want >= 1", v)
	}
	if v := vals[`adasim_runs_total{outcome="ok"}`]; v < 1 {
		t.Errorf("runs_total{ok} = %v, want >= 1", v)
	}
	if c, s := vals[`adasim_http_requests_total{route="/v1/tasks/{id}",method="GET",status="2xx"}`],
		vals[`adasim_http_request_seconds_count{route="/v1/tasks/{id}",method="GET"}`]; c < 1 || c != s {
		t.Errorf("http status-class count %v and duration count %v disagree or are zero", c, s)
	}
}

// TestHealthzMatchesMetrics asserts the two observability surfaces
// cannot disagree: the queue, cache, and journal numbers in /healthz are
// read from the same registry series /metrics exposes.
func TestHealthzMatchesMetrics(t *testing.T) {
	_, ts := obsTestServer(t)

	view, code := postJob(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitDone(t, ts, view.ID)
	// The same spec again: all cache hits, so the hit counters move.
	view2, _ := postJob(t, ts, smallSpec())
	waitDone(t, ts, view2.ID)

	var health HealthResponse
	b, code := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", code, b)
	}
	if err := json.Unmarshal(b, &health); err != nil {
		t.Fatal(err)
	}
	mb, code := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	vals := parseMetrics(t, mb)

	if health.Cache.Hits == 0 {
		t.Fatal("warm job produced no cache hits")
	}
	checks := []struct {
		name   string
		health float64
		series string
	}{
		{"queue depth", float64(health.QueueDepth),
			`adasim_queue_class_depth{class="interactive"}` /* + bulk, both 0 here */},
		{"cache hits", float64(health.Cache.Hits), `adasim_cache_hits_total`},
		{"cache misses", float64(health.Cache.Misses), `adasim_cache_misses_total`},
		{"cache entries", float64(health.Cache.Entries), `adasim_cache_entries`},
		{"journal appends", float64(health.Journal.Appends), `adasim_journal_appends_total`},
		{"journal live tasks", float64(health.Journal.LiveTasks), `adasim_journal_live_tasks`},
	}
	for _, c := range checks {
		if got, ok := vals[c.series]; !ok {
			t.Errorf("%s: series %s missing from /metrics", c.name, c.series)
		} else if got != c.health {
			t.Errorf("%s: /healthz says %v, /metrics %s says %v", c.name, c.health, c.series, got)
		}
	}
}

// TestTaskTimeline pins the lifecycle timeline contract on the JSON
// endpoint: ordered submitted -> queued -> started -> progress... ->
// done events with non-decreasing timestamps, and the monotonic
// queue-wait / run-time durations in the task view.
func TestTaskTimeline(t *testing.T) {
	_, ts := obsTestServer(t)

	view, code := postJob(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitDone(t, ts, view.ID)
	if done.Status != StatusDone {
		t.Fatalf("job = %+v", done)
	}
	if done.QueueWaitMillis < 0 || done.RunMillis <= 0 {
		t.Errorf("durations: queue_wait_ms=%v run_ms=%v, want >= 0 and > 0", done.QueueWaitMillis, done.RunMillis)
	}

	b, code := get(t, ts, "/v1/tasks/"+view.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: status %d: %s", code, b)
	}
	var resp TaskEventsResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != view.ID {
		t.Errorf("events id = %q, want %q", resp.ID, view.ID)
	}
	assertLifecycle(t, resp.Events, EventDone)

	if _, code := get(t, ts, "/v1/tasks/nope/events"); code != http.StatusNotFound {
		t.Errorf("unknown task events route: status %d, want 404", code)
	}
}

// assertLifecycle checks event ordering: submitted, queued, started
// prefix, at least one progress event, the terminal event last, and
// non-decreasing timestamps throughout.
func assertLifecycle(t *testing.T, events []TimelineEvent, terminal string) {
	t.Helper()
	if len(events) < 4 {
		t.Fatalf("timeline too short: %+v", events)
	}
	for i, want := range []string{EventSubmitted, EventQueued, EventStarted} {
		if events[i].Event != want {
			t.Fatalf("event[%d] = %q, want %q (timeline %+v)", i, events[i].Event, want, events)
		}
	}
	progress := 0
	for _, ev := range events[3 : len(events)-1] {
		if ev.Event == EventProgress {
			progress++
		}
	}
	if progress == 0 && terminal == EventDone {
		t.Errorf("no progress events in %+v", events)
	}
	if last := events[len(events)-1].Event; last != terminal {
		t.Errorf("terminal event = %q, want %q", last, terminal)
	}
	for i := 1; i < len(events); i++ {
		if events[i].TS.Before(events[i-1].TS) {
			t.Errorf("timestamps went backwards at %d: %+v", i, events)
		}
	}
}

// TestTaskEventsSSE drives the live stream end to end over HTTP: with
// Accept: text/event-stream the events endpoint replays the recorded
// events, streams the rest in order, and closes the stream right after
// the terminal event.
func TestTaskEventsSSE(t *testing.T) {
	_, ts := obsTestServer(t)

	spec := smallSpec()
	spec.Reps = 3 // 3 runs -> progress stride 1, so the stream sees progress
	view, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/tasks/"+view.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}

	// Read frames until the server closes the stream. A stuck stream
	// (server never closing after the terminal event) fails via the
	// watchdog rather than hanging the test run.
	timer := time.AfterFunc(2*time.Minute, func() { resp.Body.Close() })
	defer timer.Stop()
	var events []TimelineEvent
	var data []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) > 0 {
				var ev TimelineEvent
				if err := json.Unmarshal([]byte(strings.Join(data, "\n")), &ev); err != nil {
					t.Fatalf("bad SSE payload %q: %v", data, err)
				}
				events = append(events, ev)
				data = data[:0]
			}
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		case strings.HasPrefix(line, "event:"):
			// name mirrors the payload's event field; payload is authoritative
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream did not close cleanly: %v", err)
	}
	assertLifecycle(t, events, EventDone)
}

// TestTimelineWatchCancelRace hammers the subscription machinery from
// both sides under -race: many watchers subscribing and unsubscribing
// while tasks are canceled mid-flight. Every watcher must observe a
// terminal event (or an already-terminal past) followed by channel
// close, and stop() must be safe concurrently with the terminal close.
func TestTimelineWatchCancelRace(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 2, QueueSize: 64, CacheEntries: 64})

	const tasks = 8
	spec := smallSpec()
	spec.Reps = 4
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		s := spec
		s.BaseSeed = int64(100 + i) // distinct seeds: no cross-task caching
		view, err := d.SubmitTask(JobKind, s, "")
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 3; w++ {
			past, ch, render, stop, ok := d.WatchTask(view.ID)
			if !ok {
				t.Fatalf("watch %s: unknown task", view.ID)
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer stop()
				events := past
				for e := range ch {
					events = append(events, render(e))
				}
				// Dropped events are allowed (non-blocking fan-out); a
				// watcher that outlives the task must still end on a
				// terminal event.
				if w == 0 {
					if len(events) == 0 {
						t.Error("watcher saw no events")
						return
					}
					last := events[len(events)-1].Event
					if last != EventCanceled && last != EventDone && last != EventFailed {
						t.Errorf("last event = %q, want terminal", last)
					}
				}
			}(w)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			d.Cancel(id) // any phase: pending, running, or already done
		}(view.ID)
	}
	wg.Wait()

	// Every task is terminal (canceled or done) and its timeline ends on
	// the matching terminal event.
	counts := d.TaskCounts()[JobKind.Plural]
	if got := counts[StatusDone] + counts[StatusCanceled] + counts[StatusFailed]; got != tasks {
		t.Fatalf("terminal tasks = %d (%v), want %d", got, counts, tasks)
	}
}

// TestProgressStride pins the stride arithmetic the progress events use.
func TestProgressStride(t *testing.T) {
	for _, tc := range []struct{ total, want int }{
		{0, 16}, {-1, 16}, {1, 1}, {12, 1}, {16, 1}, {17, 2}, {160, 10}, {1000, 63},
	} {
		if got := progressStrideFor(tc.total); got != tc.want {
			t.Errorf("progressStrideFor(%d) = %d, want %d", tc.total, got, tc.want)
		}
	}
}

// TestWatchAlreadyTerminal covers the late-subscriber path: watching a
// finished task returns the whole timeline as past and a closed channel.
func TestWatchAlreadyTerminal(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 2, QueueSize: 8, CacheEntries: 64})
	view, err := d.SubmitTask(JobKind, smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	<-d.TaskDone(view.ID)
	past, ch, _, stop, ok := d.WatchTask(view.ID)
	if !ok {
		t.Fatal("unknown task")
	}
	defer stop()
	select {
	case _, open := <-ch:
		if open {
			t.Error("terminal watch delivered a live event")
		}
	case <-time.After(5 * time.Second):
		t.Error("terminal watch channel not closed")
	}
	assertLifecycle(t, past, EventDone)
	stop() // idempotent, including after the terminal close
}
