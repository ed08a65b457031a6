// Package fleet is the coordinator side of the worker protocol: the
// lease table, the wire format, and the fleet metrics. The HTTP routes
// that expose it live in internal/service; the worker node that speaks
// it lives in internal/worker, which needs this package and the run
// engine, nothing of the HTTP service.
//
// A Hub makes the Executor contract network-transparent. Tasks
// still call Execute(reqs, onDone) exactly as before; when remote
// workers are attached, the hub splits the run list into deterministic
// index-ordered batches, leases them to long-polling workers
// (POST /v1/worker/lease), and assembles completions
// (POST /v1/worker/complete) back into the request-ordered result slice.
// Because every result lands at the index of its request and a run's
// outcome is fully determined by its options and seed (core.Platform
// .Reset is bit-identical), batch boundaries and worker count can only
// affect scheduling, never bytes: 1-node and N-node results are
// byte-identical by construction.
//
// Failure model:
//
//   - a lease not completed or heartbeat-extended within the TTL is
//     expired by the janitor and its batch re-queued for the next worker
//     (or reclaimed locally);
//   - a worker silent past 2x the TTL with no live leases is pruned;
//   - a completion reporting a worker-side error re-queues the batch,
//     up to maxBatchAttempts, then fails the owning call;
//   - a completion for an unknown (expired, duplicated, or drained)
//     lease is acknowledged idempotently and its outcomes are dropped:
//     the key list expired with the lease, so there is nothing to cache
//     them under (trusting a late worker's bytes would also need a
//     digest of the run engine that produced them);
//   - when no live worker remains, pending batches are reclaimed and
//     executed on the local run pool, so a coordinator never deadlocks
//     on a departed fleet.
//
// Runs without a cache key (trace-recording figure runs, ML runs whose
// weights do not serialize) are partitioned out and always execute on
// the local run pool.
package fleet

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"adasim/internal/experiments"
	"adasim/internal/metrics"
	"adasim/internal/obs"
)

// Remote-execution sentinel errors. Their texts, like the hub's other
// error texts, keep the "service:" prefix they carry on the wire in
// worker-route error bodies and failed-task messages.
var (
	// ErrUnknownWorker means the worker ID is not registered (expired
	// registrations included) — the worker must re-register.
	ErrUnknownWorker = errors.New("service: unknown worker")
	// ErrHubClosed means the dispatcher is draining; workers should
	// back off and exit.
	ErrHubClosed = errors.New("service: worker hub closed")
)

// maxBatchAttempts bounds how many times one batch may be re-queued
// (lease expiries and failed completions combined) before the owning
// call fails: a batch that keeps killing workers must not bounce around
// the fleet forever.
const maxBatchAttempts = 4

// workerState is the hub's record of one registered worker.
type workerState struct {
	id          string
	name        string
	parallelism int
	connectedAt time.Time
	lastSeen    time.Time
	liveLeases  int
	batches     int64 // completed batches
	runs        int64 // completed runs
}

// runBatch is one leased unit of work: a contiguous index slice of a
// remoteCall's request list, with the options pre-encoded for the lease
// payload. Completion write-back uses the requests' own cache keys.
type runBatch struct {
	call     *remoteCall
	idx      []int     // indexes into the owning call's request list
	wire     []WireRun // lease payload (key + encoded options per run)
	attempts int       // times leased (re-queues included)
}

// lease is one granted batch with its expiry deadline.
type lease struct {
	id        string
	worker    *workerState
	batch     *runBatch
	grantedAt time.Time
	deadline  time.Time
}

// remoteCall is the hub-side state of one Execute call: the
// request-ordered result slots, the completion hooks, and the
// outstanding-run count. All fields are guarded by the hub mutex except
// done, which is closed exactly once under it, and deliverMu.
type remoteCall struct {
	// deliverMu serialises deliveries with failCall (see deliver). It
	// is taken before the hub mutex, never while holding it.
	deliverMu sync.Mutex
	reqs      []experiments.RunRequest
	outs      []experiments.RunOutcome
	onDone    func(i int, ro experiments.RunOutcome)
	remaining int
	err       error
	// abandoned marks a call whose waiter has given up (canceled or
	// failed): late completions still feed the cache but must not touch
	// outs or onDone — the waiter may have returned and released them.
	abandoned bool
	finished  bool
	done      chan struct{}
}

// Hub is the coordinator's lease table: registered workers, pending
// batches (FIFO), and granted leases, plus the janitor that expires
// them.
type Hub struct {
	cache     experiments.Cache
	m         *workerMetrics
	log       *slog.Logger
	ttl       time.Duration
	batchSize int

	mu        sync.Mutex
	cond      *sync.Cond // signals pending-batch arrivals to parked leases
	workers   map[string]*workerState
	pending   []*runBatch
	leases    map[string]*lease
	workerSeq int
	leaseSeq  int
	closed    bool

	closeOnce   sync.Once
	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewHub builds a hub that writes remote outcomes back through cache
// and registers the fleet series in reg, then starts its janitor; Close
// stops it.
func NewHub(cache experiments.Cache, reg *obs.Registry, log *slog.Logger, ttl time.Duration, batchSize int) *Hub {
	h := &Hub{
		cache:       cache,
		m:           newWorkerMetrics(reg),
		log:         log,
		ttl:         ttl,
		batchSize:   batchSize,
		workers:     make(map[string]*workerState),
		leases:      make(map[string]*lease),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	h.cond = sync.NewCond(&h.mu)
	go h.janitor()
	return h
}

// janitor periodically expires overdue leases (re-queueing their
// batches) and prunes workers silent past twice the TTL.
func (h *Hub) janitor() {
	defer close(h.janitorDone)
	period := h.ttl / 4
	if period < 2*time.Millisecond {
		period = 2 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-h.janitorStop:
			return
		case <-tick.C:
			h.sweep(time.Now())
		}
	}
}

// sweep is one janitor pass.
func (h *Hub) sweep(now time.Time) {
	h.mu.Lock()
	var failed []*remoteCall
	for id, l := range h.leases {
		if now.After(l.deadline) {
			delete(h.leases, id)
			l.worker.liveLeases--
			h.m.liveLeases.Add(-1)
			h.m.leaseExpiries.Inc()
			h.log.Warn("lease expired, re-queueing batch",
				"lease", id, "worker", l.worker.id, "runs", len(l.batch.idx))
			if c := h.requeueLocked(l.batch, "expired"); c != nil {
				failed = append(failed, c)
			}
		}
	}
	for id, w := range h.workers {
		if w.liveLeases == 0 && now.Sub(w.lastSeen) > 2*h.ttl {
			delete(h.workers, id)
			h.m.connected.Add(-1)
			h.log.Info("worker pruned (silent)", "worker", id, "name", w.name)
		}
	}
	h.mu.Unlock()
	for _, c := range failed {
		h.failCall(c, fmt.Errorf("service: batch abandoned after %d lease attempts", maxBatchAttempts))
	}
}

// requeueLocked puts a batch back on the pending queue (front — it has
// waited longest) unless its owning call is abandoned or the batch has
// exhausted its attempts, in which case the call to fail is returned
// for the caller to finish outside the lock. h.mu must be held.
func (h *Hub) requeueLocked(b *runBatch, reason string) (failCall *remoteCall) {
	if b.call.abandoned || b.call.finished {
		return nil // nobody is waiting; drop the batch
	}
	if b.attempts >= maxBatchAttempts {
		return b.call
	}
	h.m.requeued[reason].Inc()
	h.pending = append([]*runBatch{b}, h.pending...)
	h.cond.Broadcast()
	return nil
}

// Register admits a worker and returns its ID.
func (h *Hub) Register(name string, parallelism int) (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return "", ErrHubClosed
	}
	h.workerSeq++
	id := fmt.Sprintf("w%03d", h.workerSeq)
	now := time.Now()
	h.workers[id] = &workerState{
		id: id, name: name, parallelism: parallelism,
		connectedAt: now, lastSeen: now,
	}
	h.m.connected.Add(1)
	h.log.Info("worker registered", "worker", id, "name", name, "parallelism", parallelism)
	return id, nil
}

// Deregister removes a worker; its live leases are re-queued
// immediately rather than waiting for expiry.
func (h *Hub) Deregister(workerID string) {
	h.mu.Lock()
	w, ok := h.workers[workerID]
	if !ok {
		h.mu.Unlock()
		return
	}
	delete(h.workers, workerID)
	h.m.connected.Add(-1)
	var failed []*remoteCall
	for id, l := range h.leases {
		if l.worker == w {
			delete(h.leases, id)
			h.m.liveLeases.Add(-1)
			if c := h.requeueLocked(l.batch, "deregistered"); c != nil {
				failed = append(failed, c)
			}
		}
	}
	h.mu.Unlock()
	h.log.Info("worker deregistered", "worker", workerID, "name", w.name)
	for _, c := range failed {
		h.failCall(c, fmt.Errorf("service: batch abandoned after %d lease attempts", maxBatchAttempts))
	}
}

// Lease long-polls for a batch: it returns the next pending batch as a
// grant, or an empty grant when wait elapses with nothing to do. The
// wait is capped at the lease TTL so a parked worker refreshes its
// liveness at least once per TTL.
func (h *Hub) Lease(workerID string, wait time.Duration) (WorkerLeaseResponse, error) {
	if wait <= 0 || wait > h.ttl {
		wait = h.ttl
	}
	deadline := time.Now().Add(wait)
	// The timer takes the lock before broadcasting so the wake-up cannot
	// slip between a waiter's deadline check and its cond.Wait park.
	timer := time.AfterFunc(wait, func() {
		h.mu.Lock()
		h.mu.Unlock() //nolint:staticcheck // empty critical section orders the broadcast
		h.cond.Broadcast()
	})
	defer timer.Stop()

	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		w, ok := h.workers[workerID]
		if !ok {
			return WorkerLeaseResponse{}, ErrUnknownWorker
		}
		w.lastSeen = time.Now()
		if h.closed {
			return WorkerLeaseResponse{}, ErrHubClosed
		}
		if len(h.pending) > 0 {
			b := h.pending[0]
			h.pending = h.pending[1:]
			b.attempts++
			h.leaseSeq++
			now := time.Now()
			l := &lease{
				id:        fmt.Sprintf("l%06d", h.leaseSeq),
				worker:    w,
				batch:     b,
				grantedAt: now,
				deadline:  now.Add(h.ttl),
			}
			h.leases[l.id] = l
			w.liveLeases++
			h.m.liveLeases.Add(1)
			h.m.leasesGranted.Inc()
			return WorkerLeaseResponse{
				LeaseID:   l.id,
				TTLMillis: h.ttl.Milliseconds(),
				Runs:      b.wire,
			}, nil
		}
		if !time.Now().Before(deadline) {
			return WorkerLeaseResponse{}, nil // empty grant: poll again
		}
		h.cond.Wait()
	}
}

// Heartbeat extends a lease's deadline and refreshes the worker's
// liveness. It reports whether the lease is still live — a false return
// tells the worker its lease expired (the batch is already re-queued)
// and further work on it is wasted.
func (h *Hub) Heartbeat(workerID, leaseID string) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	w, ok := h.workers[workerID]
	if !ok {
		return false, ErrUnknownWorker
	}
	now := time.Now()
	w.lastSeen = now
	l, ok := h.leases[leaseID]
	if !ok || l.worker != w {
		return false, nil
	}
	l.deadline = now.Add(h.ttl)
	return true, nil
}

// Complete settles a lease. A successful completion delivers the
// outcomes into the owning call's result slots (and the shared cache);
// a reported worker error re-queues the batch. Completions for unknown
// leases — expired and already re-executed, duplicated, or drained —
// are acknowledged as duplicates and their outcomes are dropped, not
// cached: the lease held the batch's cache keys, and it is gone. The
// batch itself was re-queued or finished elsewhere, so nothing is lost.
func (h *Hub) Complete(workerID, leaseID string, outcomes []metrics.Outcome, workerErr string) (WorkerCompleteResponse, error) {
	h.mu.Lock()
	if w, ok := h.workers[workerID]; ok {
		w.lastSeen = time.Now()
	}
	l, ok := h.leases[leaseID]
	if !ok {
		h.mu.Unlock()
		h.m.completions["duplicate"].Inc()
		// The key list went with the lease, so the outcomes cannot be
		// matched to cache keys: acknowledge and drop them.
		return WorkerCompleteResponse{Accepted: true, Duplicate: true}, nil
	}
	delete(h.leases, leaseID)
	l.worker.liveLeases--
	h.m.liveLeases.Add(-1)
	b := l.batch

	if workerErr != "" || len(outcomes) != len(b.idx) {
		if workerErr == "" {
			workerErr = fmt.Sprintf("worker returned %d outcomes for %d runs", len(outcomes), len(b.idx))
		}
		failCall := h.requeueLocked(b, "failed")
		h.mu.Unlock()
		h.m.completions["failed"].Inc()
		h.log.Warn("remote batch failed", "lease", leaseID, "worker", workerID, "err", workerErr)
		if failCall != nil {
			h.failCall(failCall, fmt.Errorf("service: remote batch failed after %d attempts: %s", maxBatchAttempts, workerErr))
		}
		return WorkerCompleteResponse{Accepted: true}, nil
	}

	l.worker.batches++
	l.worker.runs += int64(len(outcomes))
	c := b.call
	h.mu.Unlock()

	h.m.completions["ok"].Inc()
	h.m.remoteRuns.Add(uint64(len(outcomes)))
	h.m.batchDur.Observe(time.Since(l.grantedAt).Seconds())
	// Write back through the shared content-addressed cache outside the
	// hub lock (disk store writes). Abandoned calls still cache: the
	// work is done and correct even if nobody is waiting for it.
	ros := make([]experiments.RunOutcome, len(b.idx))
	for j, i := range b.idx {
		h.cache.Put(c.reqs[i].CacheKey, outcomes[j])
		ros[j] = experiments.RunOutcome{Key: c.reqs[i].Key, Outcome: outcomes[j]}
	}
	h.deliver(c, b.idx, ros)
	return WorkerCompleteResponse{Accepted: true}, nil
}

// deliver lands a batch's outcomes in the call's result slots, runs
// the completion hooks, and settles the runs; for an abandoned call it
// does nothing. onDone runs before settle, so every hook has run by the
// time the last settle releases the waiter. The call's deliverMu is
// held throughout and failCall takes it too, so a call is never failed
// mid-delivery: once failCall returns (and with it the waiting
// execute), no hook starts.
func (h *Hub) deliver(c *remoteCall, idx []int, outs []experiments.RunOutcome) {
	c.deliverMu.Lock()
	defer c.deliverMu.Unlock()
	h.mu.Lock()
	if c.abandoned {
		h.mu.Unlock()
		return
	}
	for j, i := range idx {
		c.outs[i] = outs[j]
	}
	h.mu.Unlock()
	if c.onDone != nil {
		for j, i := range idx {
			c.onDone(i, outs[j])
		}
	}
	h.settle(c, len(idx))
}

// settle decrements a call's outstanding-run count and closes it when
// the last run lands.
func (h *Hub) settle(c *remoteCall, n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c.remaining -= n
	if c.remaining <= 0 && !c.finished {
		c.finished = true
		close(c.done)
	}
}

// failCall finishes a call with an error: pending batches are
// withdrawn, late completions are demoted to cache-only, and the waiter
// is released. It waits out a delivery in progress (see deliver).
func (h *Hub) failCall(c *remoteCall, err error) {
	c.deliverMu.Lock()
	defer c.deliverMu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	if c.finished {
		return
	}
	c.err = err
	c.abandoned = true
	c.finished = true
	h.withdrawLocked(c)
	close(c.done)
}

// withdrawLocked removes a call's batches from the pending queue.
// h.mu must be held.
func (h *Hub) withdrawLocked(c *remoteCall) {
	kept := h.pending[:0]
	for _, b := range h.pending {
		if b.call != c {
			kept = append(kept, b)
		}
	}
	for i := len(kept); i < len(h.pending); i++ {
		h.pending[i] = nil
	}
	h.pending = kept
}

// hasLiveWorkersLocked reports whether any registered worker has been
// seen within the liveness horizon (2x TTL — a healthy worker long-
// polls at least once per TTL). h.mu must be held.
func (h *Hub) hasLiveWorkersLocked() bool {
	horizon := time.Now().Add(-2 * h.ttl)
	for _, w := range h.workers {
		if w.lastSeen.After(horizon) {
			return true
		}
	}
	return false
}

// HasLiveWorkers reports whether remote execution is currently possible.
func (h *Hub) HasLiveWorkers() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.closed && h.hasLiveWorkersLocked()
}

// Close stops the hub: parked leases return ErrHubClosed, new
// registrations are refused, and the janitor exits. Idempotent.
func (h *Hub) Close() {
	h.closeOnce.Do(func() {
		h.mu.Lock()
		h.closed = true
		h.mu.Unlock()
		h.cond.Broadcast()
		close(h.janitorStop)
	})
	<-h.janitorDone
}

// execute is the remote execution path of one Executor.Execute call:
// partition (wire-eligible vs local-only), batch, enqueue, and wait.
// The local-only partition runs concurrently on the local executor.
// The cancel check is polled on the wait ticker; once it returns an
// error the pending batches are withdrawn and that error returned with
// the partial (request-ordered) results, matching the local executor's
// contract.
func (h *Hub) execute(reqs []experiments.RunRequest, onDone func(i int, ro experiments.RunOutcome), local experiments.Executor, check func() error) ([]experiments.RunOutcome, error) {
	call := &remoteCall{
		reqs: reqs,
		outs: make([]experiments.RunOutcome, len(reqs)),
		done: make(chan struct{}),
	}
	var remote []int
	var localIdx []int
	var wire []WireRun
	for i, req := range reqs {
		if req.CacheKey == "" {
			localIdx = append(localIdx, i) // uncacheable (trace/ML) runs stay local
			continue
		}
		b, err := experiments.MarshalOptions(req.Opts)
		if err != nil {
			localIdx = append(localIdx, i)
			continue
		}
		remote = append(remote, i)
		wire = append(wire, WireRun{Key: req.Key, Opts: b})
	}
	if len(remote) == 0 {
		return local.Execute(reqs, onDone)
	}
	call.onDone = onDone
	call.remaining = len(remote)

	// Deterministic batch split: contiguous index ranges in request
	// order. The split affects scheduling only — results land at their
	// request index — so any batch size yields identical bytes.
	var batches []*runBatch
	for at := 0; at < len(remote); at += h.batchSize {
		end := at + h.batchSize
		if end > len(remote) {
			end = len(remote)
		}
		batches = append(batches, &runBatch{
			call: call,
			idx:  remote[at:end],
			wire: wire[at:end],
		})
	}

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return local.Execute(reqs, onDone)
	}
	h.pending = append(h.pending, batches...)
	h.mu.Unlock()
	h.cond.Broadcast()

	// The local-only partition executes concurrently on the local
	// executor, which returns len(sub) outcomes even on error.
	localDone := make(chan struct{})
	var localErr error
	if len(localIdx) == 0 {
		close(localDone)
	} else {
		go func() {
			defer close(localDone)
			sub := make([]experiments.RunRequest, len(localIdx))
			for j, i := range localIdx {
				sub[j] = reqs[i]
			}
			louts, lerr := local.Execute(sub, func(j int, ro experiments.RunOutcome) {
				if onDone != nil {
					onDone(localIdx[j], ro)
				}
			})
			h.mu.Lock()
			for j, i := range localIdx {
				call.outs[i] = louts[j]
			}
			h.mu.Unlock()
			localErr = lerr
		}()
	}

	period := h.ttl / 4
	if period < 2*time.Millisecond {
		period = 2 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
wait:
	for {
		select {
		case <-call.done:
			break wait
		case <-tick.C:
			if check != nil {
				if err := check(); err != nil {
					h.failCall(call, err)
					break wait
				}
			}
			// Fleet gone: reclaim this call's still-pending batches and
			// run them on the local executor. Leased batches of a dead
			// worker re-enter pending via janitor expiry and are picked
			// up on a later tick.
			if bs := h.reclaim(call); len(bs) > 0 {
				if err := h.runReclaimed(call, bs, local); err != nil {
					h.failCall(call, err)
					break wait
				}
			}
		}
	}
	<-localDone

	h.mu.Lock()
	err := call.err
	outs := call.outs
	h.mu.Unlock()
	if err == nil {
		err = localErr
	}
	return outs, err
}

// reclaim removes and returns a call's pending batches when no live
// worker is left to lease them.
func (h *Hub) reclaim(c *remoteCall) []*runBatch {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hasLiveWorkersLocked() {
		return nil
	}
	var mine []*runBatch
	kept := h.pending[:0]
	for _, b := range h.pending {
		if b.call == c {
			mine = append(mine, b)
		} else {
			kept = append(kept, b)
		}
	}
	for i := len(kept); i < len(h.pending); i++ {
		h.pending[i] = nil
	}
	h.pending = kept
	return mine
}

// runReclaimed executes reclaimed batches on the local executor and
// delivers their outcomes exactly like a remote completion, minus the
// cache write: the task layer caches fresh outcomes itself.
func (h *Hub) runReclaimed(c *remoteCall, batches []*runBatch, local experiments.Executor) error {
	var idx []int
	for _, b := range batches {
		idx = append(idx, b.idx...)
		h.m.requeued["reclaimed"].Inc()
	}
	sub := make([]experiments.RunRequest, len(idx))
	for j, i := range idx {
		sub[j] = c.reqs[i]
	}
	h.log.Info("no live workers; reclaiming batches for local execution", "runs", len(sub))
	louts, err := local.Execute(sub, nil)
	if err != nil {
		return err
	}
	h.deliver(c, idx, louts)
	return nil
}

// Executor returns the Executor a coordinator hands a task: Execute
// goes remote when live workers are attached and runs on local (the
// run pool, bound to the task's cancel check) otherwise, so a
// coordinator with no fleet behaves exactly like a single node. check
// is the same cancel check local is bound to; a remote call polls it
// and returns its error.
func (h *Hub) Executor(local experiments.Executor, check func() error) experiments.Executor {
	return remoteExecutor{hub: h, local: local, check: check}
}

type remoteExecutor struct {
	hub   *Hub
	local experiments.Executor
	check func() error
}

func (re remoteExecutor) Execute(reqs []experiments.RunRequest, onDone func(i int, ro experiments.RunOutcome)) ([]experiments.RunOutcome, error) {
	if !re.hub.HasLiveWorkers() {
		return re.local.Execute(reqs, onDone)
	}
	return re.hub.execute(reqs, onDone, re.local, re.check)
}

// WorkerFleetStats is the /healthz (and /v1/workers) fleet summary,
// read from the same registry series /metrics serves.
type WorkerFleetStats struct {
	Connected       int    `json:"connected"`
	LiveLeases      int    `json:"live_leases"`
	LeasesGranted   uint64 `json:"leases_granted"`
	LeaseExpiries   uint64 `json:"lease_expiries"`
	BatchesRequeued uint64 `json:"batches_requeued"`
	RemoteRuns      uint64 `json:"remote_runs"`
}

// FleetStats snapshots the fleet counters.
func (h *Hub) FleetStats() WorkerFleetStats {
	var requeued uint64
	for _, c := range h.m.requeued {
		requeued += c.Value()
	}
	return WorkerFleetStats{
		Connected:       int(h.m.connected.Value()),
		LiveLeases:      int(h.m.liveLeases.Value()),
		LeasesGranted:   h.m.leasesGranted.Value(),
		LeaseExpiries:   h.m.leaseExpiries.Value(),
		BatchesRequeued: requeued,
		RemoteRuns:      h.m.remoteRuns.Value(),
	}
}

// WorkerInfo is one worker's row in the /v1/workers fleet view.
type WorkerInfo struct {
	ID                string    `json:"id"`
	Name              string    `json:"name,omitempty"`
	Parallelism       int       `json:"parallelism,omitempty"`
	ConnectedAt       time.Time `json:"connected_at"`
	LastSeenMillisAgo float64   `json:"last_seen_ms_ago"`
	LiveLeases        int       `json:"live_leases"`
	CompletedBatches  int64     `json:"completed_batches"`
	CompletedRuns     int64     `json:"completed_runs"`
}

// Workers lists the registered workers sorted by ID.
func (h *Hub) Workers() []WorkerInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now()
	infos := make([]WorkerInfo, 0, len(h.workers))
	for _, w := range h.workers {
		infos = append(infos, WorkerInfo{
			ID:                w.id,
			Name:              w.name,
			Parallelism:       w.parallelism,
			ConnectedAt:       w.connectedAt.UTC(),
			LastSeenMillisAgo: float64(now.Sub(w.lastSeen).Microseconds()) / 1e3,
			LiveLeases:        w.liveLeases,
			CompletedBatches:  w.batches,
			CompletedRuns:     w.runs,
		})
	}
	sortWorkerInfos(infos)
	return infos
}

// sortWorkerInfos orders by ID (w001, w002, ... — lexicographic equals
// numeric for the fixed-width sequence).
func sortWorkerInfos(infos []WorkerInfo) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].ID < infos[j-1].ID; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}
