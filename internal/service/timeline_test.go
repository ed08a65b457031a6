package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/metrics"
	"adasim/internal/store"
)

// stubRun is a run function that simulates nothing: every run returns
// the same outcome at once, so timelines depend on scheduling alone.
func stubRun(*experiments.Runner, core.Options) (*core.Result, error) {
	return &core.Result{Outcome: metrics.Outcome{Steps: 1}}, nil
}

// gatedRun returns a stub run that signals entered as each run starts
// and then blocks until gate is closed.
func gatedRun(entered chan<- struct{}, gate <-chan struct{}) func(*experiments.Runner, core.Options) (*core.Result, error) {
	return func(r *experiments.Runner, o core.Options) (*core.Result, error) {
		entered <- struct{}{}
		<-gate
		return stubRun(r, o)
	}
}

// durPattern matches a rounded time.Duration's String form ("0s",
// "12µs", "1.234ms", "1m2.5s").
const durPattern = `([0-9]+(\.[0-9]+)?(h|m|s|ms|µs|ns))+`

// wantEvent is one expected timeline entry: its exact event name and
// its detail, exact except that {dur} matches any duration.
type wantEvent struct{ event, detail string }

// TestTimelinePaths pins every lifecycle path's timeline text exactly
// (durations by pattern): done, failed, canceled while queued, canceled
// while running, recovered from the journal, and a journal record that
// no longer replays. The JSON endpoint and the SSE stream must carry the
// same entries.
func TestTimelinePaths(t *testing.T) {
	spec := smallSpec()
	spec.Reps = 3
	prep, err := spec.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	h := shortHash(prep.Hash)

	cases := []struct {
		name string
		// drive runs the path and returns the task whose timeline is
		// checked, already terminal.
		drive func(t *testing.T) (*Dispatcher, string)
		want  []wantEvent
	}{
		{
			name: "done",
			drive: func(t *testing.T) (*Dispatcher, string) {
				d := newChaosDispatcher(t, Config{Workers: 1, CacheEntries: 16}, stubRun)
				return d, submitAndWait(t, d, spec)
			},
			want: []wantEvent{
				{"submitted", "job interactive, spec " + h},
				{"queued", "queue depth 1"},
				{"started", "queue wait {dur}"},
				{"progress", "0/3 runs, 0 cache hits"},
				{"progress", "1/3 runs, 0 cache hits"},
				{"progress", "2/3 runs, 0 cache hits"},
				{"progress", "3/3 runs, 0 cache hits"},
				{"done", "3 runs, 0 cache hits, ran {dur}"},
			},
		},
		{
			name: "failed",
			drive: func(t *testing.T) (*Dispatcher, string) {
				broken := func(*experiments.Runner, core.Options) (*core.Result, error) {
					return nil, errors.New("injected fault")
				}
				d := newChaosDispatcher(t, Config{Workers: 1, CacheEntries: 16, RunRetries: -1}, broken)
				return d, submitAndWait(t, d, spec)
			},
			want: []wantEvent{
				{"submitted", "job interactive, spec " + h},
				{"queued", "queue depth 1"},
				{"started", "queue wait {dur}"},
				{"progress", "0/3 runs, 0 cache hits"},
				{"failed", "run S1/60/0: injected fault"},
			},
		},
		{
			name: "canceled while queued",
			drive: func(t *testing.T) (*Dispatcher, string) {
				entered, gate := make(chan struct{}, 16), make(chan struct{})
				d := newChaosDispatcher(t, Config{Workers: 1, CacheEntries: 16}, gatedRun(entered, gate))
				defer close(gate)
				occupier := smallSpec()
				occupier.BaseSeed = 99
				if _, err := d.SubmitTask(JobKind, occupier, ""); err != nil {
					t.Fatal(err)
				}
				<-entered
				v, err := d.SubmitTask(JobKind, spec, "")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := d.Cancel(v.ID); err != nil {
					t.Fatal(err)
				}
				return d, v.ID
			},
			want: []wantEvent{
				{"submitted", "job interactive, spec " + h},
				{"queued", "queue depth 1"},
				{"canceled", "canceled while queued"},
			},
		},
		{
			name: "canceled while running",
			drive: func(t *testing.T) (*Dispatcher, string) {
				entered, gate := make(chan struct{}, 16), make(chan struct{})
				d := newChaosDispatcher(t, Config{Workers: 1, CacheEntries: 16}, gatedRun(entered, gate))
				v, err := d.SubmitTask(JobKind, spec, "")
				if err != nil {
					t.Fatal(err)
				}
				<-entered // the first run holds the only runner
				if _, err := d.Cancel(v.ID); err != nil {
					t.Fatal(err)
				}
				close(gate)
				finalViews(t, d, v.ID)
				return d, v.ID
			},
			want: []wantEvent{
				{"submitted", "job interactive, spec " + h},
				{"queued", "queue depth 1"},
				{"started", "queue wait {dur}"},
				{"progress", "0/3 runs, 0 cache hits"},
				{"cancel_requested", "stopping between runs"},
				{"progress", "1/3 runs, 0 cache hits"},
				{"canceled", "canceled after 1 runs"},
			},
		},
		{
			name: "recovered from journal",
			drive: func(t *testing.T) (*Dispatcher, string) {
				b, err := JobKind.Encode(spec)
				if err != nil {
					t.Fatal(err)
				}
				id := "j000001-" + prep.Hash[:8]
				dir := journalWith(t, store.JournalRecord{
					Op: store.OpSubmit, ID: id, Seq: 1, Kind: JobKind.Plural,
					Priority: string(PriorityInteractive), Spec: b, At: time.Now().UTC(),
				})
				d := newChaosDispatcher(t, Config{Workers: 1, CacheEntries: 16, JournalDir: dir}, stubRun)
				finalViews(t, d, id)
				return d, id
			},
			want: []wantEvent{
				{"submitted", "job interactive, spec " + h + " (recovered from journal)"},
				{"queued", "queue depth 1"},
				{"started", "queue wait {dur}"},
				{"progress", "0/3 runs, 0 cache hits"},
				{"progress", "1/3 runs, 0 cache hits"},
				{"progress", "2/3 runs, 0 cache hits"},
				{"progress", "3/3 runs, 0 cache hits"},
				{"done", "3 runs, 0 cache hits, ran {dur}"},
			},
		},
		{
			name: "replay failure",
			drive: func(t *testing.T) (*Dispatcher, string) {
				id := "j000001-deadbeef"
				dir := journalWith(t, store.JournalRecord{
					Op: store.OpSubmit, ID: id, Seq: 1, Kind: JobKind.Plural,
					Spec: json.RawMessage(`{"bogus":1}`), At: time.Now().UTC(),
				})
				d := newChaosDispatcher(t, Config{Workers: 1, CacheEntries: 16, JournalDir: dir}, stubRun)
				return d, id
			},
			want: []wantEvent{
				{"submitted", "job (recovered from journal)"},
				{"failed", `journal replay: json: unknown field "bogus"`},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, id := tc.drive(t)
			ts := httptest.NewServer(NewServer(d))
			defer ts.Close()

			b, code := get(t, ts, "/v1/tasks/"+id+"/events")
			if code != http.StatusOK {
				t.Fatalf("events: status %d: %s", code, b)
			}
			var resp TaskEventsResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				t.Fatal(err)
			}
			got := resp.Events
			if len(got) != len(tc.want) {
				t.Fatalf("timeline has %d events, want %d:\n%s", len(got), len(tc.want), formatEvents(got))
			}
			for i, w := range tc.want {
				re := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(w.detail), `\{dur\}`, durPattern) + "$")
				if got[i].Event != w.event || !re.MatchString(got[i].Detail) {
					t.Errorf("event[%d] = %s %q, want %s %q", i, got[i].Event, got[i].Detail, w.event, w.detail)
				}
				if i > 0 && got[i].TS.Before(got[i-1].TS) {
					t.Errorf("event[%d] timestamp %v before event[%d] %v", i, got[i].TS, i-1, got[i-1].TS)
				}
			}
			if sse := sseEvents(t, ts, id); !reflect.DeepEqual(sse, got) {
				t.Errorf("SSE frames differ from the JSON timeline:\nsse:\n%s\njson:\n%s", formatEvents(sse), formatEvents(got))
			}
		})
	}
}

// submitAndWait submits a job and waits for it to finish.
func submitAndWait(t *testing.T, d *Dispatcher, spec JobSpec) string {
	t.Helper()
	v, err := d.SubmitTask(JobKind, spec, "")
	if err != nil {
		t.Fatal(err)
	}
	finalViews(t, d, v.ID)
	return v.ID
}

// journalWith writes a journal directory holding the given records, as
// a crashed daemon would have left it.
func journalWith(t *testing.T, recs ...store.JournalRecord) string {
	t.Helper()
	dir := t.TempDir()
	j, _, _, err := store.OpenJournal(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// sseEvents reads a terminal task's whole SSE stream. Each frame's
// event line must name the event its payload carries.
func sseEvents(t *testing.T, ts *httptest.Server, id string) []TimelineEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/tasks/"+id+"/events", nil)
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
	var events []TimelineEvent
	var name string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev TimelineEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			if ev.Event != name {
				t.Errorf("SSE frame named %q carries event %q", name, ev.Event)
			}
			events = append(events, ev)
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func formatEvents(events []TimelineEvent) string {
	var sb strings.Builder
	for _, ev := range events {
		sb.WriteString("  " + ev.TS.Format(time.RFC3339Nano) + " " + ev.Event + " " + ev.Detail + "\n")
	}
	return sb.String()
}
