// Loopback end-to-end tests of the distributed execution tier: a real
// coordinator (dispatcher + http.Server) with in-process worker nodes,
// byte-compared against a single-node coordinator and the direct
// engine. The distribution proof is that remote execution is invisible
// in the result bytes for every task kind.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adasim/internal/client"
	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/explore"
	"adasim/internal/fi"
	"adasim/internal/report"
	"adasim/internal/scenario"
	"adasim/internal/service"
)

// bootCoordinator starts a dispatcher behind a real http.Server on a
// loopback listener — the same wiring as cmd/adasimd — and returns a
// client pointed at it plus the base URL workers dial.
func bootCoordinator(t *testing.T, cfg service.Config) (*client.Client, string) {
	t.Helper()
	d, err := service.NewDispatcher(cfg)
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
	base := "http://" + ln.Addr().String()
	c := client.New(base)
	c.Poll = 5 * time.Millisecond
	return c, base
}

// startWorker runs a worker node against base until test cleanup (or
// an explicit stop), waiting for its registration to land so tests
// never race the remote path against the local fallback.
func startWorker(t *testing.T, base string, cfg Config) (w *Worker, stop func()) {
	t.Helper()
	cfg.Coordinator = base
	if cfg.LeaseWait == 0 {
		cfg.LeaseWait = 50 * time.Millisecond
	}
	w = New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	stop = func() {
		cancel()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Error("worker did not stop")
		}
	}
	t.Cleanup(stop)
	deadline := time.Now().Add(10 * time.Second)
	for w.ID() == "" {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return w, stop
}

// multiNodeCoordinator boots a coordinator with a small batch size (so
// every kind spans several leases) and two attached worker nodes.
func multiNodeCoordinator(t *testing.T) *client.Client {
	t.Helper()
	c, base := bootCoordinator(t, service.Config{
		Workers: 2, QueueSize: 16, CacheEntries: 1024,
		WorkerBatch: 2, LeaseTTL: time.Second,
	})
	startWorker(t, base, Config{Name: "node-a", Parallelism: 2})
	startWorker(t, base, Config{Name: "node-b", Parallelism: 2})
	return c
}

// runTask submits a spec on path, waits for done, and returns the raw
// result bytes.
func runTask(t *testing.T, c *client.Client, path string, spec any) []byte {
	t.Helper()
	var view service.TaskView
	if err := c.PostJSON(path, spec, &view); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitTask(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusDone {
		t.Fatalf("task on %s = %+v", path, final)
	}
	got, err := c.GetRaw("/v1/tasks/" + final.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// jobSpec mirrors the client e2e job so the engine reference below is
// the same computation.
func jobSpec() service.JobSpec {
	return service.JobSpec{
		Scenarios:     []scenario.ID{scenario.S1},
		Gaps:          []float64{60},
		Reps:          2,
		Steps:         300,
		BaseSeed:      7,
		Salt:          2,
		Fault:         fi.DefaultParams(fi.TargetRelDistance),
		Interventions: core.InterventionSet{Driver: true},
	}
}

// TestMultiNodeJobByteIdentity proves the tentpole determinism claim
// for jobs: two-worker distributed results == single-node results ==
// direct engine bytes, and the distributed run really went remote.
func TestMultiNodeJobByteIdentity(t *testing.T) {
	multi := multiNodeCoordinator(t)
	single, _ := bootCoordinator(t, service.Config{Workers: 2, QueueSize: 16, CacheEntries: 1024})

	spec := jobSpec()
	gotMulti := runTask(t, multi, "/v1/tasks/jobs", spec)
	gotSingle := runTask(t, single, "/v1/tasks/jobs", spec)
	if !bytes.Equal(gotMulti, gotSingle) {
		t.Errorf("distributed job diverges from single-node:\n%s\nvs\n%s", gotMulti, gotSingle)
	}

	runs, err := experiments.RunMatrix(experiments.Config{Reps: 2, Steps: 300, BaseSeed: 7},
		spec.Fault, spec.Interventions, spec.Salt)
	if err != nil {
		t.Fatal(err)
	}
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
	if !bytes.Equal(gotMulti, expected) {
		t.Errorf("distributed job diverges from direct engine:\n%s\nvs\n%s", gotMulti, expected)
	}

	requireRemoteRuns(t, multi)
}

// TestMultiNodeExplorationByteIdentity: the adaptive boundary search
// submits runs in sequential waves; distribution must not perturb it.
func TestMultiNodeExplorationByteIdentity(t *testing.T) {
	multi := multiNodeCoordinator(t)
	spec := explore.Spec{
		Family:        "cut-in",
		Steps:         400,
		Interventions: core.InterventionSet{Driver: true},
		Fixed:         map[string]float64{"cutin_gap": 25},
		Boundary:      &explore.BoundarySpec{Axis: "trigger_gap", Min: 5, Max: 60, Tolerance: 10},
	}
	got := runTask(t, multi, "/v1/tasks/explorations", spec)

	rep, err := explore.New(experiments.NewPool(0), nil).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if expected := wireJSON(t, rep); !bytes.Equal(got, expected) {
		t.Errorf("distributed exploration diverges from direct engine:\n%s\nvs\n%s", got, expected)
	}
	requireRemoteRuns(t, multi)
}

// TestMultiNodeReportByteIdentity: Fig6 runs record traces and are
// wire-ineligible, so this report exercises the mixed remote+local
// partition inside a single Execute call.
func TestMultiNodeReportByteIdentity(t *testing.T) {
	multi := multiNodeCoordinator(t)
	spec := report.Spec{Artifacts: []string{report.Table4, report.Fig6}, Reps: 1, Steps: 300, BaseSeed: 5}
	got := runTask(t, multi, "/v1/tasks/reports", spec)

	res, err := report.New(experiments.NewPool(0), nil).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if expected := wireJSON(t, res); !bytes.Equal(got, expected) {
		t.Errorf("distributed report diverges from direct engine:\n%s\nvs\n%s", got, expected)
	}
	requireRemoteRuns(t, multi)
}

// TestWorkerCrashMidBatchRecovers injects the only worker in the
// fleet with an engine that dies on its first batch (the protocol
// sees a failed completion instead of silence); the batch re-queues,
// the same node's recovered engine re-executes it, and the task
// completes with byte-identical results.
func TestWorkerCrashMidBatchRecovers(t *testing.T) {
	c, base := bootCoordinator(t, service.Config{
		Workers: 2, QueueSize: 16, CacheEntries: 1024,
		WorkerBatch: 2, LeaseTTL: time.Second,
	})
	chaotic := &failFirstBatch{inner: experiments.NewPool(1)}
	startWorker(t, base, Config{Name: "chaotic", Executor: chaotic})

	spec := jobSpec()
	got := runTask(t, c, "/v1/tasks/jobs", spec)
	if chaotic.batches.Load() == 0 {
		t.Fatal("chaos executor never saw a batch; test proved nothing")
	}

	single, _ := bootCoordinator(t, service.Config{Workers: 2, QueueSize: 16, CacheEntries: 1024})
	want := runTask(t, single, "/v1/tasks/jobs", spec)
	if !bytes.Equal(got, want) {
		t.Errorf("post-crash results diverge from single-node:\n%s\nvs\n%s", got, want)
	}
	requireRemoteRuns(t, c)
}

// failFirstBatch is an engine that dies on the first batch it is handed
// and works for every later one.
type failFirstBatch struct {
	inner   experiments.Executor
	batches atomic.Int64
}

func (f *failFirstBatch) Execute(reqs []experiments.RunRequest, onDone func(int, experiments.RunOutcome)) ([]experiments.RunOutcome, error) {
	if f.batches.Add(1) == 1 {
		return make([]experiments.RunOutcome, len(reqs)), context.DeadlineExceeded // any error: the engine died mid-batch
	}
	return f.inner.Execute(reqs, onDone)
}

// TestWorkerRunPanicIsolated: a run that panics on a worker node fails
// its lease with the panic instead of killing the node. The batch is
// re-leased until the coordinator gives up on it (4 attempts) and fails
// the task with the worker's error, and the same worker loop then
// serves the next task to done.
func TestWorkerRunPanicIsolated(t *testing.T) {
	c, base := bootCoordinator(t, service.Config{
		Workers: 1, QueueSize: 16, CacheEntries: 1024,
		WorkerBatch: 2, LeaseTTL: time.Second,
	})
	bad := jobSpec()
	bad.BaseSeed = 13
	plan, err := bad.Normalized().Plan()
	if err != nil {
		t.Fatal(err)
	}
	badSeed := plan[0].Opts.Seed
	var panics atomic.Int64
	pool := experiments.NewPoolWith(1, experiments.PoolOptions{
		Run: func(r *experiments.Runner, opts core.Options) (*core.Result, error) {
			if opts.Seed == badSeed {
				panics.Add(1)
				panic("injected worker run panic")
			}
			return r.Do(opts)
		},
	})
	startWorker(t, base, Config{Name: "fragile", Executor: pool})

	var view service.TaskView
	if err := c.PostJSON("/v1/tasks/jobs", bad, &view); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitTask(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != service.StatusFailed ||
		!strings.Contains(final.Error, "run panicked") ||
		!strings.Contains(final.Error, "injected worker run panic") {
		t.Fatalf("panicking task = %+v, want failed with the worker's panic", final)
	}
	if got := panics.Load(); got != 4 {
		t.Errorf("panicking run executed %d times, want 4 (one per lease attempt)", got)
	}

	before := fleetRemoteRuns(t, c)
	runTask(t, c, "/v1/tasks/jobs", jobSpec())
	if after := fleetRemoteRuns(t, c); after <= before {
		t.Errorf("remote runs did not grow after the panic (%d -> %d): the worker stopped serving", before, after)
	}
}

// fleetRemoteRuns reads the coordinator's remote-run counter.
func fleetRemoteRuns(t *testing.T, c *client.Client) uint64 {
	t.Helper()
	ws, err := c.Workers()
	if err != nil {
		t.Fatal(err)
	}
	return ws.Fleet.RemoteRuns
}

// TestWorkerGracefulExitShrinksFleet: a worker that leaves between
// tasks deregisters cleanly — the fleet view shrinks, and the
// remaining node still serves tasks remotely.
func TestWorkerGracefulExitShrinksFleet(t *testing.T) {
	c, base := bootCoordinator(t, service.Config{
		Workers: 1, QueueSize: 16, CacheEntries: 1024,
		WorkerBatch: 1, LeaseTTL: time.Second,
	})
	_, stopLeaving := startWorker(t, base, Config{Name: "leaving", Parallelism: 1})
	startWorker(t, base, Config{Name: "staying", Parallelism: 2})

	spec := jobSpec()
	spec.Reps = 4
	runTask(t, c, "/v1/tasks/jobs", spec)

	stopLeaving() // graceful: ctx cancel -> deregister on the way out
	ws, err := c.Workers()
	if err != nil {
		t.Fatal(err)
	}
	if ws.Fleet.Connected != 1 {
		t.Errorf("connected workers after graceful exit = %d, want 1", ws.Fleet.Connected)
	}

	// A fresh task (different seed, so no cache hits) still runs
	// remotely on the surviving node.
	spec2 := spec
	spec2.BaseSeed = 11
	before := ws.Fleet.RemoteRuns
	runTask(t, c, "/v1/tasks/jobs", spec2)
	ws, err = c.Workers()
	if err != nil {
		t.Fatal(err)
	}
	if ws.Fleet.RemoteRuns <= before {
		t.Errorf("remote runs did not grow after fleet shrink (%d -> %d)", before, ws.Fleet.RemoteRuns)
	}
}

// requireRemoteRuns asserts the fleet actually executed runs remotely —
// the guard that keeps the byte-identity tests from silently passing
// through the local fallback.
func requireRemoteRuns(t *testing.T, c *client.Client) {
	t.Helper()
	ws, err := c.Workers()
	if err != nil {
		t.Fatal(err)
	}
	if ws.Fleet.RemoteRuns == 0 {
		t.Error("fleet executed zero remote runs; the distributed path was never exercised")
	}
	if ws.Fleet.Connected == 0 {
		t.Error("no workers connected according to /v1/workers")
	}
}

// wireJSON reproduces the server's byte-exact encoding (compact JSON
// plus a trailing newline).
func wireJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}
