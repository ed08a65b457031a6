// End-to-end test: the real HTTP server (not httptest) on a loopback
// listener, driven through the same client code paths cmd/adasimctl
// uses, byte-compared against direct engine output.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/explore"
	"adasim/internal/fi"
	"adasim/internal/report"
	"adasim/internal/scenario"
	"adasim/internal/service"
)

// bootServer starts a dispatcher and a real http.Server on a loopback
// listener, exactly as cmd/adasimd wires them, and returns a client
// pointed at it.
func bootServer(t *testing.T) (*Client, *service.Dispatcher) {
	t.Helper()
	d, err := service.NewDispatcher(service.Config{Workers: 4, QueueSize: 16, CacheEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: service.NewServer(d)}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := d.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	c := New("http://" + ln.Addr().String())
	c.Poll = 5 * time.Millisecond
	return c, d
}

// wireJSON reproduces the server's byte-exact encoding of v (compact
// JSON plus a trailing newline).
func wireJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestEndToEndJobMatchesEngine(t *testing.T) {
	c, _ := bootServer(t)
	spec := service.JobSpec{
		Scenarios:     []scenario.ID{scenario.S1},
		Gaps:          []float64{60},
		Reps:          1,
		Steps:         300,
		BaseSeed:      7,
		Salt:          2,
		Fault:         fi.DefaultParams(fi.TargetRelDistance),
		Interventions: core.InterventionSet{Driver: true},
	}

	var view service.TaskView
	if err := c.PostJSON("/v1/tasks/jobs", spec, &view); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitTask(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusDone {
		t.Fatalf("job = %+v", final)
	}
	got, err := c.GetRaw("/v1/tasks/" + final.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}

	runs, err := experiments.RunMatrix(experiments.Config{Reps: 1, Steps: 300, BaseSeed: 7},
		spec.Fault, spec.Interventions, spec.Salt)
	if err != nil {
		t.Fatal(err)
	}
	// The direct matrix covers all scenarios and gaps; filter to the
	// job's single cell in canonical order.
	var want []experiments.RunOutcome
	for _, r := range runs {
		if r.Key.Scenario == scenario.S1 && r.Key.Gap == 60 {
			want = append(want, r)
		}
	}
	hash, err := spec.Normalized().Hash()
	if err != nil {
		t.Fatal(err)
	}
	expected := wireJSON(t, service.ResultsResponse{
		SpecHash:  hash,
		TotalRuns: len(want),
		Results:   want,
		Aggregate: service.AggregateFor(want),
	})
	if !bytes.Equal(got, expected) {
		t.Errorf("job results over HTTP diverge from direct engine output:\n%s\nvs\n%s", got, expected)
	}
}

func TestEndToEndExplorationMatchesEngine(t *testing.T) {
	c, _ := bootServer(t)
	spec := explore.Spec{
		Family:        "cut-in",
		Steps:         400,
		Interventions: core.InterventionSet{Driver: true},
		Fixed:         map[string]float64{"cutin_gap": 25},
		Boundary:      &explore.BoundarySpec{Axis: "trigger_gap", Min: 5, Max: 60, Tolerance: 10},
	}

	var view service.TaskView
	if err := c.PostJSON("/v1/tasks/explorations", spec, &view); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitTask(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusDone {
		t.Fatalf("exploration = %+v", final)
	}
	got, err := c.GetRaw("/v1/tasks/" + final.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}

	rep, err := explore.New(experiments.NewPool(0), nil).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if expected := wireJSON(t, rep); !bytes.Equal(got, expected) {
		t.Errorf("exploration results over HTTP diverge from direct engine output:\n%s\nvs\n%s", got, expected)
	}
}

func TestEndToEndReportMatchesEngine(t *testing.T) {
	c, _ := bootServer(t)
	spec := report.Spec{Artifacts: []string{report.Table4, report.Fig6}, Reps: 1, Steps: 300, BaseSeed: 5}

	var view service.TaskView
	if err := c.PostJSON("/v1/tasks/reports", spec, &view); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitTask(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusDone {
		t.Fatalf("report = %+v", final)
	}
	got, err := c.GetRaw("/v1/tasks/" + final.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}

	res, err := report.New(experiments.NewPool(0), nil).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if expected := wireJSON(t, res); !bytes.Equal(got, expected) {
		t.Errorf("report results over HTTP diverge from direct engine output:\n%s\nvs\n%s", got, expected)
	}
}

// TestEndToEndUnifiedTaskAPI drives the generic task client over the
// real server: submit through /v1/tasks/{kind}, wait and fetch results
// through /v1/tasks/{id}, and byte-compare against the legacy per-kind
// route — the alias contract.
func TestEndToEndUnifiedTaskAPI(t *testing.T) {
	c, _ := bootServer(t)
	spec := service.JobSpec{
		Scenarios:     []scenario.ID{scenario.S1},
		Gaps:          []float64{60},
		Reps:          1,
		Steps:         300,
		BaseSeed:      9,
		Fault:         fi.DefaultParams(fi.TargetRelDistance),
		Interventions: core.InterventionSet{Driver: true},
	}
	view, err := c.SubmitTask("jobs", spec, "")
	if err != nil {
		t.Fatal(err)
	}
	if view.Kind != "job" || view.Priority != service.PriorityInteractive {
		t.Errorf("submitted view = %+v", view)
	}
	final, err := c.WaitTask(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusDone {
		t.Fatalf("task = %+v", final)
	}
	if _, err := c.TaskResults(view.ID); err != nil {
		t.Fatal(err)
	}
	// Priority override is visible on the accepted view.
	bulk, err := c.SubmitTask("jobs", spec, service.PriorityBulk)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Priority != service.PriorityBulk {
		t.Errorf("bulk-submitted view priority = %q", bulk.Priority)
	}
	if _, err := c.WaitTask(bulk.ID); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndCancel exercises cancellation through the client: a
// submitted task is canceled (queued: it never runs; running: it stops
// between runs), and WaitTask returns its terminal canceled view.
func TestEndToEndCancel(t *testing.T) {
	c, d := bootServer(t)
	// Occupy the scheduler so the next submission stays queued long
	// enough to cancel (fault-free runs never terminate early).
	occupier := service.JobSpec{
		Scenarios:     []scenario.ID{scenario.S1},
		Gaps:          []float64{60},
		Reps:          100,
		Steps:         8000,
		BaseSeed:      31,
		Interventions: core.InterventionSet{Driver: true},
	}
	occ, err := c.SubmitTask("jobs", occupier, "")
	if err != nil {
		t.Fatal(err)
	}
	victim := occupier
	victim.BaseSeed = 32
	v, err := c.SubmitTask("jobs", victim, "")
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := c.CancelTask(v.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := c.WaitTask(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusCanceled {
		t.Errorf("canceled task = %+v (cancel view %+v)", final, canceled)
	}
	if _, err := c.TaskResults(v.ID); err == nil {
		t.Error("canceled task served results")
	}
	// Cancel the occupier too (it is running by now or already done);
	// either outcome is a valid state-machine edge, but the dispatcher
	// must end with every record terminal after drain.
	c.CancelTask(occ.ID)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestClientErrorSurface(t *testing.T) {
	c, _ := bootServer(t)
	if err := c.PostJSON("/v1/tasks/reports", report.Spec{Artifacts: []string{"bogus"}}, nil); err == nil {
		t.Error("invalid report spec accepted")
	}
	if _, err := c.GetRaw("/v1/tasks/nope/results"); err == nil {
		t.Error("unknown report id accepted")
	}
}
