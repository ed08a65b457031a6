// Package worker is the remote worker node of the distributed
// execution tier: it registers with an adasimd coordinator, long-polls
// POST /v1/worker/lease for batches of runs, executes them on a local
// long-lived platform pool (experiments.Pool — the same run engine a
// coordinator uses, panic isolation included), and reports outcomes via
// POST /v1/worker/complete. A run that fails or panics fails its lease;
// the coordinator re-queues the batch.
//
// A worker holds no state the coordinator depends on: outcomes are
// deterministic in the leased options, so a worker that crashes
// mid-batch simply loses its lease — the coordinator's TTL janitor
// re-queues the batch and another node (or the coordinator's own pool)
// re-executes it to the identical bytes. That makes the loop
// here deliberately simple: retry registration until it sticks, poll,
// execute, complete, and deregister on the way out.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"adasim/internal/experiments"
	"adasim/internal/fleet"
	"adasim/internal/metrics"
)

// Config shapes a worker node.
type Config struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name is a free-form operator label sent at registration
	// (typically the hostname).
	Name string
	// Parallelism is the local pool's Runner count. Zero means
	// GOMAXPROCS.
	Parallelism int
	// LeaseWait is the long-poll wait requested per lease call (the
	// coordinator clamps it to its lease TTL). Zero means 2s.
	LeaseWait time.Duration
	// Logger receives the worker's structured log records. Nil means
	// discard.
	Logger *slog.Logger
	// HTTP is the underlying HTTP client; nil means a default client
	// with no global timeout (lease calls are long polls).
	HTTP *http.Client
	// Executor overrides the local execution engine — the fault tests'
	// injection point. Nil means experiments.NewPool(Parallelism).
	Executor experiments.Executor
}

// Worker is one registered worker node. Build with New, drive with Run.
type Worker struct {
	cfg  Config
	log  *slog.Logger
	http *http.Client
	exec experiments.Executor

	mu  sync.Mutex
	id  string        // assigned by the coordinator at registration
	ttl time.Duration // coordinator's lease TTL, from registration
}

// Backoff shape for coordinator errors (unreachable, draining): capped
// exponential so a worker outliving its coordinator stays quiet.
const (
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
	// completeRetries is how many times a completion report is retried;
	// an undeliverable completion is dropped — the lease will expire and
	// the batch re-execute, which is correct, just slower.
	completeRetries = 3
)

// New builds a worker node (not yet registered; Run does that).
func New(cfg Config) *Worker {
	w := &Worker{
		cfg:  cfg,
		log:  cfg.Logger,
		http: cfg.HTTP,
		exec: cfg.Executor,
	}
	if w.log == nil {
		w.log = slog.New(slog.DiscardHandler)
	}
	if w.http == nil {
		w.http = &http.Client{}
	}
	if w.exec == nil {
		w.exec = experiments.NewPool(cfg.Parallelism)
	}
	w.cfg.Coordinator = strings.TrimRight(w.cfg.Coordinator, "/")
	return w
}

// ID returns the coordinator-assigned worker ID (empty before the
// first successful registration).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Run registers and serves leases until ctx is canceled, then
// deregisters (best effort) so the coordinator re-queues any live lease
// immediately instead of waiting out the TTL. It returns ctx.Err() on
// cancellation — the only way Run returns.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	defer w.deregister()
	backoff := backoffBase
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		grant, status, err := w.lease(ctx)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if status == http.StatusGone {
				// Registration pruned (long pause, coordinator restart):
				// re-register and carry on.
				w.log.Warn("registration lost, re-registering", "err", err)
				if rerr := w.register(ctx); rerr != nil {
					return rerr
				}
				continue
			}
			w.log.Warn("lease poll failed", "err", err)
			if !sleepCtx(ctx, backoff) {
				return ctx.Err()
			}
			backoff = min(backoff*2, backoffMax)
		case grant.LeaseID == "":
			backoff = backoffBase // healthy empty poll; go straight back
		default:
			backoff = backoffBase
			w.serve(ctx, grant)
		}
	}
}

// serve executes one leased batch and reports its completion, renewing
// the lease with heartbeats while the batch runs.
func (w *Worker) serve(ctx context.Context, grant fleet.WorkerLeaseResponse) {
	w.log.Info("lease granted", "lease", grant.LeaseID, "runs", len(grant.Runs))
	stopHeartbeat := w.heartbeatLoop(ctx, grant)
	outcomes, execErr := w.executeBatch(grant.Runs)
	stopHeartbeat()

	req := fleet.WorkerCompleteRequest{
		WorkerID: w.ID(),
		LeaseID:  grant.LeaseID,
		Outcomes: outcomes,
	}
	if execErr != nil {
		req.Outcomes = nil
		req.Error = execErr.Error()
		w.log.Warn("batch failed", "lease", grant.LeaseID, "err", execErr)
	}
	var resp fleet.WorkerCompleteResponse
	for attempt := 0; ; attempt++ {
		_, err := w.post(ctx, "/v1/worker/complete", req, &resp)
		if err == nil {
			if resp.Duplicate {
				w.log.Info("completion was duplicate (lease expired or re-executed)", "lease", grant.LeaseID)
			}
			return
		}
		if ctx.Err() != nil || attempt >= completeRetries {
			w.log.Warn("dropping undeliverable completion (lease will expire)",
				"lease", grant.LeaseID, "err", err)
			return
		}
		sleepCtx(ctx, backoffBase<<attempt)
	}
}

// executeBatch decodes a lease's runs and executes them on the local
// pool, returning the outcomes in lease-run order.
func (w *Worker) executeBatch(runs []fleet.WireRun) ([]metrics.Outcome, error) {
	reqs := make([]experiments.RunRequest, len(runs))
	for i, run := range runs {
		opts, err := experiments.UnmarshalOptions(run.Opts)
		if err != nil {
			return nil, fmt.Errorf("worker: run %d: %w", i, err)
		}
		reqs[i] = experiments.RunRequest{Key: run.Key, Opts: opts}
	}
	outs, err := w.exec.Execute(reqs, nil)
	if err != nil {
		return nil, err
	}
	outcomes := make([]metrics.Outcome, len(outs))
	for i, ro := range outs {
		outcomes[i] = ro.Outcome
	}
	return outcomes, nil
}

// heartbeatLoop renews the lease every TTL/3 until the returned stop
// function is called. A dead heartbeat is only logged: if the lease
// really expired the completion will come back Duplicate, and if the
// coordinator is gone the completion will fail too — both are handled
// there.
func (w *Worker) heartbeatLoop(ctx context.Context, grant fleet.WorkerLeaseResponse) (stop func()) {
	ttl := time.Duration(grant.TTLMillis) * time.Millisecond
	period := ttl / 3
	if period <= 0 {
		period = time.Millisecond
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				var resp fleet.WorkerHeartbeatResponse
				req := fleet.WorkerHeartbeatRequest{WorkerID: w.ID(), LeaseID: grant.LeaseID}
				if _, err := w.post(ctx, "/v1/worker/heartbeat", req, &resp); err != nil {
					w.log.Warn("heartbeat failed", "lease", grant.LeaseID, "err", err)
				} else if !resp.Live {
					w.log.Warn("lease expired under us; batch will be a duplicate", "lease", grant.LeaseID)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// register announces the worker, retrying with backoff until the
// coordinator accepts or ctx ends.
func (w *Worker) register(ctx context.Context) error {
	req := fleet.WorkerRegisterRequest{Name: w.cfg.Name, Parallelism: w.cfg.Parallelism}
	backoff := backoffBase
	for {
		var resp fleet.WorkerRegisterResponse
		_, err := w.post(ctx, "/v1/worker/register", req, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.ttl = time.Duration(resp.TTLMillis) * time.Millisecond
			w.mu.Unlock()
			w.log.Info("registered", "worker", resp.WorkerID, "coordinator", w.cfg.Coordinator)
			return nil
		}
		w.log.Warn("registration failed, retrying", "err", err)
		if !sleepCtx(ctx, backoff) {
			return ctx.Err()
		}
		backoff = min(backoff*2, backoffMax)
	}
}

// deregister tells the coordinator this worker is leaving so its leases
// re-queue immediately. Best effort, bounded: Run's ctx is already
// canceled by now, so it uses its own short deadline.
func (w *Worker) deregister() {
	id := w.ID()
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := w.post(ctx, "/v1/worker/deregister", fleet.WorkerDeregisterRequest{WorkerID: id}, nil); err != nil {
		w.log.Warn("deregister failed (coordinator will prune by TTL)", "err", err)
	} else {
		w.log.Info("deregistered", "worker", id)
	}
}

// lease long-polls for the next batch.
func (w *Worker) lease(ctx context.Context) (fleet.WorkerLeaseResponse, int, error) {
	req := fleet.WorkerLeaseRequest{WorkerID: w.ID(), WaitMillis: w.leaseWait().Milliseconds()}
	var resp fleet.WorkerLeaseResponse
	status, err := w.post(ctx, "/v1/worker/lease", req, &resp)
	return resp, status, err
}

func (w *Worker) leaseWait() time.Duration {
	if w.cfg.LeaseWait <= 0 {
		return 2 * time.Second
	}
	return w.cfg.LeaseWait
}

// post issues one JSON POST and decodes the response into out (which
// may be nil). It returns the HTTP status (0 on transport errors) so
// callers can branch on protocol-level rejections like 410 Gone.
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(rb, &e) == nil && e.Error != "" {
			return resp.StatusCode, fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return resp.StatusCode, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(rb)))
	}
	if out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(rb, out)
}

// sleepCtx sleeps for d or until ctx ends; it reports whether the full
// sleep happened.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
