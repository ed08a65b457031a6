// Worker-protocol failure modes, exercised at the hub level: lease
// expiry re-queue, failed-completion re-queue, duplicate-completion
// idempotency, attempt exhaustion, fleet-departure reclaim, and
// drain-with-attached-workers. The fake workers here drive the hub's Go
// API directly (Register/Lease/Complete — exactly what the HTTP
// handlers call); the end-to-end loopback-worker tests live in
// internal/worker, which owns the real client loop.
package service

import (
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/fi"
	"adasim/internal/metrics"
	"adasim/internal/obs"
	"adasim/internal/scenario"
	"adasim/internal/store"
)

// testHub builds a hub with a tiny TTL so janitor-driven failure paths
// run in milliseconds.
func testHub(t *testing.T, ttl time.Duration, batch int) *workerHub {
	t.Helper()
	cache, err := store.NewResultCache(256, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := newWorkerHub(cache, newWorkerMetrics(obs.NewRegistry()),
		slog.New(slog.DiscardHandler), ttl, batch)
	t.Cleanup(h.close)
	return h
}

// hubReqs builds n remote-eligible run requests.
func hubReqs(t *testing.T, n int) []experiments.RunRequest {
	t.Helper()
	reqs := make([]experiments.RunRequest, n)
	for i := range reqs {
		opts := core.Options{
			Scenario:      scenario.DefaultSpec(scenario.S1, 60),
			Fault:         fi.DefaultParams(fi.TargetRelDistance),
			Interventions: core.InterventionSet{Driver: true},
			Seed:          int64(1000 + i),
			Steps:         120,
		}
		key, err := experiments.RunFingerprint(opts)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = experiments.RunRequest{
			Key:      experiments.RunKey{Scenario: scenario.S1, Gap: 60, Rep: i},
			Opts:     opts,
			CacheKey: key,
		}
	}
	return reqs
}

// executeGrant runs a granted batch the way a healthy worker does:
// decode each run's options and execute them on a local Runner.
func executeGrant(t *testing.T, grant WorkerLeaseResponse) []metrics.Outcome {
	t.Helper()
	var r experiments.Runner
	outcomes := make([]metrics.Outcome, len(grant.Runs))
	for i, run := range grant.Runs {
		opts, err := experiments.UnmarshalOptions(run.Opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Do(opts)
		if err != nil {
			t.Fatal(err)
		}
		outcomes[i] = res.Outcome
	}
	return outcomes
}

// directOuts executes reqs locally — the byte-identity reference.
func directOuts(t *testing.T, reqs []experiments.RunRequest) []experiments.RunOutcome {
	t.Helper()
	outs, err := experiments.NewPool(2).Execute(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// leaseUntilGrant polls Lease until a batch is granted.
func leaseUntilGrant(t *testing.T, h *workerHub, workerID string) WorkerLeaseResponse {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		grant, err := h.Lease(workerID, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if grant.LeaseID != "" {
			return grant
		}
	}
	t.Fatal("no lease granted within deadline")
	return WorkerLeaseResponse{}
}

// startExecute launches hub.execute in a goroutine and returns a
// channel carrying its result.
type execResult struct {
	outs []experiments.RunOutcome
	err  error
}

func startExecute(h *workerHub, reqs []experiments.RunRequest, local Executor, canceled func() bool) chan execResult {
	ch := make(chan execResult, 1)
	go func() {
		outs, err := h.execute(reqs, nil, local, canceled)
		ch <- execResult{outs, err}
	}()
	return ch
}

// requireOuts asserts the executor produced exactly the direct-engine
// outcomes at the right indexes.
func requireOuts(t *testing.T, got []experiments.RunOutcome, reqs []experiments.RunRequest) {
	t.Helper()
	want := directOuts(t, reqs)
	if len(got) != len(want) {
		t.Fatalf("got %d outcomes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Errorf("run %d key = %+v, want %+v", i, got[i].Key, want[i].Key)
		}
		if got[i].Outcome != want[i].Outcome {
			t.Errorf("run %d outcome diverges from direct execution", i)
		}
	}
}

// TestLeaseExpiryRequeues: a worker takes a lease and goes silent; the
// janitor expires it, the batch re-queues, and a healthy worker
// finishes the call with byte-identical results.
func TestLeaseExpiryRequeues(t *testing.T) {
	h := testHub(t, 40*time.Millisecond, 2)
	stalled, err := h.Register("stalled", 1)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := h.Register("healthy", 1)
	if err != nil {
		t.Fatal(err)
	}

	reqs := hubReqs(t, 2)
	done := startExecute(h, reqs, experiments.NewPool(1), nil)

	// The stalled worker grabs the batch and never completes it.
	if grant := leaseUntilGrant(t, h, stalled); len(grant.Runs) != 2 {
		t.Fatalf("granted %d runs, want 2", len(grant.Runs))
	}
	// The healthy worker keeps polling (staying live) until the janitor
	// expires the stalled lease and hands it the re-queued batch.
	grant := leaseUntilGrant(t, h, healthy)
	resp, err := h.Complete(healthy, grant.LeaseID, executeGrant(t, grant), "")
	if err != nil || !resp.Accepted || resp.Duplicate {
		t.Fatalf("complete = %+v, %v", resp, err)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("execute: %v", res.err)
	}
	requireOuts(t, res.outs, reqs)
	if got := h.m.leaseExpiries.Value(); got < 1 {
		t.Errorf("lease expiries = %d, want >= 1", got)
	}
	if got := h.m.requeued["expired"].Value(); got < 1 {
		t.Errorf("expired re-queues = %d, want >= 1", got)
	}
}

// TestDuplicateCompletionIdempotent: completing the same lease twice —
// the expired-and-re-executed worker's late report — is acknowledged as
// a duplicate and changes nothing.
func TestDuplicateCompletionIdempotent(t *testing.T) {
	h := testHub(t, time.Second, 4)
	w, err := h.Register("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := hubReqs(t, 3)
	done := startExecute(h, reqs, experiments.NewPool(1), nil)

	grant := leaseUntilGrant(t, h, w)
	outcomes := executeGrant(t, grant)
	first, err := h.Complete(w, grant.LeaseID, outcomes, "")
	if err != nil || !first.Accepted || first.Duplicate {
		t.Fatalf("first complete = %+v, %v", first, err)
	}
	second, err := h.Complete(w, grant.LeaseID, outcomes, "")
	if err != nil || !second.Accepted || !second.Duplicate {
		t.Fatalf("second complete = %+v, %v (want duplicate)", second, err)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("execute: %v", res.err)
	}
	requireOuts(t, res.outs, reqs)
	if got := h.m.completions["duplicate"].Value(); got != 1 {
		t.Errorf("duplicate completions = %d, want 1", got)
	}
}

// TestFailedCompletionRequeues: a worker-side error re-queues the batch
// for the next lease; the retry completes the call.
func TestFailedCompletionRequeues(t *testing.T) {
	h := testHub(t, time.Second, 4)
	w, err := h.Register("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := hubReqs(t, 2)
	done := startExecute(h, reqs, experiments.NewPool(1), nil)

	grant := leaseUntilGrant(t, h, w)
	if _, err := h.Complete(w, grant.LeaseID, nil, "simulated crash mid-batch"); err != nil {
		t.Fatal(err)
	}
	retry := leaseUntilGrant(t, h, w)
	if _, err := h.Complete(w, retry.LeaseID, executeGrant(t, retry), ""); err != nil {
		t.Fatal(err)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("execute: %v", res.err)
	}
	requireOuts(t, res.outs, reqs)
	if got := h.m.requeued["failed"].Value(); got != 1 {
		t.Errorf("failed re-queues = %d, want 1", got)
	}
}

// TestBatchFailsAfterMaxAttempts: a batch that fails on every attempt
// eventually fails the owning call instead of bouncing forever.
func TestBatchFailsAfterMaxAttempts(t *testing.T) {
	h := testHub(t, time.Second, 4)
	w, err := h.Register("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := hubReqs(t, 1)
	done := startExecute(h, reqs, experiments.NewPool(1), nil)

	for {
		grant, err := h.Lease(w, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if grant.LeaseID == "" {
			select {
			case res := <-done:
				if res.err == nil || !strings.Contains(res.err.Error(), "poison") {
					t.Fatalf("execute err = %v, want the worker error surfaced", res.err)
				}
				return
			default:
				continue
			}
		}
		if _, err := h.Complete(w, grant.LeaseID, nil, "poison batch"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetDepartureReclaimsLocally: every worker leaves before the
// batches are leased; the call reclaims them and finishes on the local
// executor — a coordinator never deadlocks on a departed fleet.
func TestFleetDepartureReclaimsLocally(t *testing.T) {
	h := testHub(t, 30*time.Millisecond, 2)
	w, err := h.Register("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := hubReqs(t, 4)
	done := startExecute(h, reqs, experiments.NewPool(2), nil)
	// The worker deregisters without ever leasing; the hub must notice
	// the empty fleet and run the pending batches locally.
	h.Deregister(w)

	res := <-done
	if res.err != nil {
		t.Fatalf("execute: %v", res.err)
	}
	requireOuts(t, res.outs, reqs)
	if got := h.m.requeued["reclaimed"].Value(); got < 1 {
		t.Errorf("reclaimed batches = %d, want >= 1", got)
	}
}

// TestDeregisterRequeuesLiveLeases: a graceful worker exit immediately
// re-queues its leased batch (no TTL wait) for the remaining fleet.
func TestDeregisterRequeuesLiveLeases(t *testing.T) {
	h := testHub(t, time.Second, 4)
	leaver, err := h.Register("leaver", 1)
	if err != nil {
		t.Fatal(err)
	}
	stayer, err := h.Register("stayer", 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := hubReqs(t, 2)
	done := startExecute(h, reqs, experiments.NewPool(1), nil)

	grant := leaseUntilGrant(t, h, leaver)
	h.Deregister(leaver)
	if got := h.m.requeued["deregistered"].Value(); got != 1 {
		t.Errorf("deregistered re-queues = %d, want 1", got)
	}
	_ = grant

	retry := leaseUntilGrant(t, h, stayer)
	if _, err := h.Complete(stayer, retry.LeaseID, executeGrant(t, retry), ""); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("execute: %v", res.err)
	}
	requireOuts(t, res.outs, reqs)
}

// TestHeartbeatExtendsLease: heartbeats keep a slow batch alive past
// the TTL, and report liveness truthfully after expiry.
func TestHeartbeatExtendsLease(t *testing.T) {
	h := testHub(t, 50*time.Millisecond, 4)
	w, err := h.Register("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := hubReqs(t, 1)
	done := startExecute(h, reqs, experiments.NewPool(1), nil)

	grant := leaseUntilGrant(t, h, w)
	// Heartbeat through 3 TTLs; the lease must survive.
	for i := 0; i < 10; i++ {
		time.Sleep(15 * time.Millisecond)
		live, err := h.Heartbeat(w, grant.LeaseID)
		if err != nil {
			t.Fatal(err)
		}
		if !live {
			t.Fatalf("lease expired at heartbeat %d despite renewals", i)
		}
	}
	if _, err := h.Complete(w, grant.LeaseID, executeGrant(t, grant), ""); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("execute: %v", res.err)
	}
	requireOuts(t, res.outs, reqs)
	if got := h.m.leaseExpiries.Value(); got != 0 {
		t.Errorf("lease expiries = %d, want 0", got)
	}

	// After completion the lease is gone: heartbeat reports not-live.
	live, err := h.Heartbeat(w, grant.LeaseID)
	if err != nil || live {
		t.Errorf("post-completion heartbeat = %v, %v (want not live)", live, err)
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
		if !errors.Is(err, ErrHubClosed) {
			t.Errorf("parked lease err = %v, want ErrHubClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("parked lease never released by drain")
	}
	// A worker arriving after drain is refused outright.
	if _, err := d.hub.Register("late", 1); !errors.Is(err, ErrHubClosed) {
		t.Errorf("post-drain register err = %v, want ErrHubClosed", err)
	}
}

// TestRemoteExecutorFallsBackWithNoWorkers pins the degraded mode: a
// hub with no registered workers routes everything through the local
// executor and tasks behave exactly as single-node.
func TestRemoteExecutorFallsBackWithNoWorkers(t *testing.T) {
	h := testHub(t, time.Second, 4)
	if h.HasLiveWorkers() {
		t.Fatal("empty hub claims live workers")
	}
	reqs := hubReqs(t, 2)
	outs, err := h.execute(reqs, nil, experiments.NewPool(1), nil)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	requireOuts(t, outs, reqs)
}

// TestCanceledCallLateCompletionIsCacheOnly pins the abandoned-call
// contract: the waiter cancels while a worker holds a live lease, so
// the completion lands after execute has already returned. The hub must
// demote it to cache-only — the outcomes still enter the shared
// content-addressed cache, but the call's onDone hook (whose state the
// waiter may have released) must never fire.
func TestCanceledCallLateCompletionIsCacheOnly(t *testing.T) {
	h := testHub(t, time.Second, 2)
	w, err := h.Register("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := hubReqs(t, 2)

	var stop atomic.Bool
	var hookCalls atomic.Int64
	done := make(chan execResult, 1)
	go func() {
		outs, err := h.execute(reqs, func(int, experiments.RunOutcome) {
			hookCalls.Add(1)
		}, experiments.NewPool(1), stop.Load)
		done <- execResult{outs, err}
	}()

	grant := leaseUntilGrant(t, h, w)
	outcomes := executeGrant(t, grant)

	// Cancel while the lease is live: execute returns before the worker
	// reports back.
	stop.Store(true)
	res := <-done
	if !errors.Is(res.err, ErrCanceled) {
		t.Fatalf("execute err = %v, want ErrCanceled", res.err)
	}

	resp, err := h.Complete(w, grant.LeaseID, outcomes, "")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || resp.Duplicate {
		t.Fatalf("late completion resp = %+v, want accepted non-duplicate", resp)
	}
	if got := hookCalls.Load(); got != 0 {
		t.Errorf("onDone fired %d times after the call was abandoned", got)
	}

	// The finished work is still valid content-addressed results.
	var fp experiments.FingerprintScratch
	for i, req := range reqs {
		key, err := fp.Fingerprint(req.Opts)
		if err != nil {
			t.Fatal(err)
		}
		out, ok := h.cache.Get(key)
		if !ok {
			t.Fatalf("run %d missing from cache after late completion", i)
		}
		if out != outcomes[i] {
			t.Errorf("run %d cached outcome diverges from the worker's result", i)
		}
	}
}

// TestLateDeliveryStartsNoHookAfterReturn: a completion whose first
// hook is still running when the call is canceled must not start
// another hook once execute has returned — a hook after the return
// would move the progress of a task that already finished.
func TestLateDeliveryStartsNoHookAfterReturn(t *testing.T) {
	h := testHub(t, time.Second, 2)
	w, err := h.Register("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := hubReqs(t, 2)

	var stop, returned atomic.Bool
	var hooks, late atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan execResult, 1)
	go func() {
		outs, err := h.execute(reqs, func(int, experiments.RunOutcome) {
			if returned.Load() {
				late.Add(1)
			}
			if hooks.Add(1) == 1 {
				close(entered)
				<-release
			}
		}, experiments.NewPool(1), stop.Load)
		returned.Store(true)
		done <- execResult{outs, err}
	}()

	grant := leaseUntilGrant(t, h, w)
	if len(grant.Runs) != 2 {
		t.Fatalf("granted %d runs, want both in one lease", len(grant.Runs))
	}
	outcomes := executeGrant(t, grant)
	completed := make(chan error, 1)
	go func() {
		_, err := h.Complete(w, grant.LeaseID, outcomes, "")
		completed <- err
	}()
	<-entered

	// Cancel while the first hook blocks; give execute several cancel
	// ticks to return before the hook is let go.
	stop.Store(true)
	var res execResult
	got := false
	select {
	case res = <-done:
		got = true
	case <-time.After(time.Second):
	}
	close(release)
	if err := <-completed; err != nil {
		t.Fatal(err)
	}
	if !got {
		res = <-done
	}
	if res.err != nil && !errors.Is(res.err, ErrCanceled) {
		t.Fatalf("execute err = %v, want nil or ErrCanceled", res.err)
	}
	if n := late.Load(); n != 0 {
		t.Errorf("%d completion hooks started after execute returned", n)
	}
}

// TestLocalPartitionFailureDuringRemoteCall: a call mixing remote and
// local-only runs, where the local-only run fails while a worker still
// holds the remote batch. The local executor's failed call must come
// back with one outcome per request (the Executor contract), and the
// call must surface the run error once the worker completes.
func TestLocalPartitionFailureDuringRemoteCall(t *testing.T) {
	h := testHub(t, time.Second, 4)
	w, err := h.Register("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := hubReqs(t, 3)
	reqs[2].Opts.RecordTrace = true // trace runs never travel: local-only
	wantErr := errors.New("injected local run fault")
	local := &ChaosExecutor{
		Inner: experiments.NewPool(1),
		FailRun: func(req experiments.RunRequest) error {
			if req.Opts.RecordTrace {
				return wantErr
			}
			return nil
		},
	}
	done := startExecute(h, reqs, local, nil)

	grant := leaseUntilGrant(t, h, w)
	if len(grant.Runs) != 2 {
		t.Fatalf("granted %d runs, want the 2 remote-eligible ones", len(grant.Runs))
	}
	// Hold the lease until the local partition has failed.
	deadline := time.Now().Add(5 * time.Second)
	for local.Injected.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("local partition never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := h.Complete(w, grant.LeaseID, executeGrant(t, grant), ""); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if !errors.Is(res.err, wantErr) {
		t.Fatalf("execute err = %v, want the local run error", res.err)
	}
	if len(res.outs) != len(reqs) {
		t.Fatalf("got %d outcomes, want %d", len(res.outs), len(reqs))
	}
}
