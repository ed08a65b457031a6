package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adasim/internal/core"
	"adasim/internal/mlmit"
	"adasim/internal/scenario"
)

// Keys enumerates the scenarios x gaps x reps run matrix in the canonical
// campaign order (scenario-major, then gap, then rep). It is the shared
// enumeration used by RunMatrix and by campaign-service job plans, so the
// result ordering of a job never depends on who executes it.
func Keys(scenarios []scenario.ID, gaps []float64, reps int) []RunKey {
	keys := make([]RunKey, 0, len(scenarios)*len(gaps)*reps)
	for _, id := range scenarios {
		for _, gap := range gaps {
			for rep := 0; rep < reps; rep++ {
				keys = append(keys, RunKey{Scenario: id, Gap: gap, Rep: rep})
			}
		}
	}
	return keys
}

// Runner executes closed-loop runs on one long-lived core.Platform,
// resetting it between runs so the road map, perception/monitor buffers,
// and ML inference scratch are built once per Runner instead of once per
// run. core.Platform.Reset guarantees bit-identical trajectories versus a
// fresh platform, so a run's outcome never depends on which Runner (or
// how warm a Runner) executed it. A Runner is not safe for concurrent
// use; give each worker goroutine its own.
type Runner struct {
	p *core.Platform
}

// Do executes one run to completion, reusing the Runner's platform.
func (r *Runner) Do(opts core.Options) (*core.Result, error) {
	if r.p == nil {
		p, err := core.NewPlatform(opts)
		if err != nil {
			return nil, err
		}
		r.p = p
	} else if err := r.p.Reset(opts, opts.Seed); err != nil {
		r.p = nil // a failed Reset leaves the platform unusable
		return nil, err
	}
	return r.p.Run(), nil
}

// RunRequest is one unit of executable campaign work: a run key, the
// fully resolved options (including the derived seed), and the
// content-addressed cache key of the run's outcome (RunFingerprint).
// An empty CacheKey marks the run uncacheable (trace-recording and ML
// runs): Resolve always executes it and it never leaves the process.
type RunRequest struct {
	Key      RunKey
	Opts     core.Options
	CacheKey string
}

// ErrRunPanic marks a run that panicked. The panic is converted into a
// run failure (never retried: a deterministic simulation panics
// deterministically), so it fails only the batch that asked for the run
// and the process keeps serving.
var ErrRunPanic = errors.New("experiments: run panicked")

// Retry backoff for transient run failures: capped exponential, starting
// at the base and doubling per attempt.
const (
	retryBaseBackoff = 5 * time.Millisecond
	retryMaxBackoff  = 250 * time.Millisecond
)

// PoolOptions shape a Pool's run handling. The zero value is what the
// offline CLIs use: no retries, no observers.
type PoolOptions struct {
	// Retries is how many times a failed run is retried, with capped
	// exponential backoff, before its error surfaces. Panics are never
	// retried.
	Retries int
	// Run executes one attempt on a Runner; nil means Runner.Do. It is
	// the fault-injection seam beneath retry and panic isolation.
	Run func(*Runner, core.Options) (*core.Result, error)
	// Observe, when non-nil, is called once per run with its execution
	// time and attempt count (retries included) and its final error. The
	// clock is only read when it is set.
	Observe func(elapsed time.Duration, attempts int, err error)
	// MLObserve, when non-nil, receives the size and kernel time of
	// every batched ML inference on the pool's hub.
	MLObserve func(batch int, elapsed time.Duration)
}

// Pool is the local run engine: a fixed set of Runners — and therefore
// long-lived platforms — shared by every batch it executes, so
// sequential workloads (exploration probes, boundary searches, service
// tasks) pay platform construction once per pool, not once per batch.
// Each run borrows an idle Runner for its duration, which bounds the
// runs in flight at the pool's parallelism however many Execute calls
// are concurrent; Execute is safe for concurrent use.
//
// When every Runner is busy, runs wait, and a freed Runner is handed
// over by Claim rank. Callers without a Claim rank as interactive, so a
// pool only they use is plain FIFO.
//
// A run that panics fails with ErrRunPanic and its Runner is replaced,
// since the platform may have been left mid-step.
type Pool struct {
	mu      sync.Mutex
	idle    []*Runner
	waiters []waiter // runs waiting for a Runner, oldest first
	mlHub   *mlmit.Hub
	opts    PoolOptions
}

// waiter is one run waiting for a Runner; ch (buffered) receives it.
type waiter struct {
	claim *Claim
	ch    chan *Runner
}

// Claim is a caller's standing when the pool hands a freed Runner to a
// waiting run: lower ranks first — a promoted bulk claim (-1), then
// interactive claims and the zero Claim (0), then bulk claims (1) — and
// the oldest waiting run within a rank.
type Claim struct {
	rank    atomic.Int32
	waiting atomic.Int32 // runs of this claim's batches not yet started
}

// NewClaim returns an interactive claim or, with bulk, a bulk one.
func NewClaim(bulk bool) *Claim {
	c := new(Claim)
	if bulk {
		c.rank.Store(1)
	}
	return c
}

// Promote puts a bulk claim's runs ahead of every other waiting run
// from now on. It reports whether this call promoted the claim.
func (c *Claim) Promote() bool { return c.rank.CompareAndSwap(1, -1) }

// Waiting reports whether a batch under the claim has runs not yet
// started: waiting for a Runner, or about to once theirs is busy.
func (c *Claim) Waiting() bool { return c.waiting.Load() > 0 }

// NewPool sizes a pool at parallelism Runners (GOMAXPROCS when <= 0)
// with default options.
func NewPool(parallelism int) *Pool { return NewPoolWith(parallelism, PoolOptions{}) }

// NewPoolWith is NewPool with explicit run handling. The pool owns an ML
// inference hub sized to its parallelism, so ML-enabled runs executing
// concurrently on its Runners batch their LSTM predictions into fused
// float32 GEMMs (batched and solo outputs are bit-identical, so results
// are unchanged).
func NewPoolWith(parallelism int, opts PoolOptions) *Pool {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.Run == nil {
		opts.Run = (*Runner).Do
	}
	p := &Pool{
		idle:  make([]*Runner, parallelism),
		mlHub: mlmit.NewHub(parallelism, 0),
		opts:  opts,
	}
	if opts.MLObserve != nil {
		p.mlHub.SetObserver(opts.MLObserve)
	}
	runners := make([]Runner, parallelism)
	for i := range runners {
		p.idle[i] = &runners[i]
	}
	return p
}

// Execute runs the batch over the pool. Results land at the index of
// their request, so the output order is deterministic and independent
// of the parallelism. onDone, when non-nil, is invoked once per
// successful run from the run's goroutine (callers use it for progress
// accounting; it must be safe for concurrent use). Every request
// executes; the first failed run in request order is the error, and the
// outcomes are still returned — len(reqs) of them, the successful runs
// filled in — so callers can keep the work that did succeed.
func (p *Pool) Execute(reqs []RunRequest, onDone func(i int, ro RunOutcome)) ([]RunOutcome, error) {
	return p.execute(reqs, onDone, nil, nil)
}

// Bind returns an Executor running on p whose runs wait for Runners
// under claim (nil: the zero Claim) and call check before starting,
// once a Runner is free for them. Once check returns an error, no
// further run starts, the runs in flight finish, and Execute returns
// that error with the partial outcomes.
func (p *Pool) Bind(claim *Claim, check func() error) Executor {
	return boundPool{p: p, claim: claim, check: check}
}

type boundPool struct {
	p     *Pool
	claim *Claim
	check func() error
}

func (bp boundPool) Execute(reqs []RunRequest, onDone func(i int, ro RunOutcome)) ([]RunOutcome, error) {
	return bp.p.execute(reqs, onDone, bp.claim, bp.check)
}

func (p *Pool) execute(reqs []RunRequest, onDone func(i int, ro RunOutcome), claim *Claim, check func() error) ([]RunOutcome, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if claim == nil {
		claim = new(Claim)
	}
	outs := make([]RunOutcome, len(reqs))
	errs := make([]error, len(reqs))
	handoff := make(chan *Runner, 1) // this loop waits for one Runner at a time
	var stopped error
	var wg sync.WaitGroup
	claim.waiting.Add(int32(len(reqs)))
	for i := range reqs {
		r := p.acquire(claim, handoff)
		// Checked once a Runner is free, right before the run starts.
		if check != nil {
			if stopped = check(); stopped != nil {
				p.release(r)
				claim.waiting.Add(int32(i - len(reqs))) // the unstarted rest
				break
			}
		}
		claim.waiting.Add(-1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = p.run(r, reqs[i])
			if errs[i] == nil && onDone != nil {
				onDone(i, outs[i])
			}
			p.release(r)
		}()
	}
	wg.Wait()
	if stopped != nil {
		return outs, stopped
	}
	for _, err := range errs {
		if err != nil {
			return outs, err
		}
	}
	return outs, nil
}

// acquire takes an idle Runner, or queues the run and waits for
// release to hand it one.
func (p *Pool) acquire(claim *Claim, handoff chan *Runner) *Runner {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		r := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return r
	}
	p.waiters = append(p.waiters, waiter{claim, handoff})
	p.mu.Unlock()
	return <-handoff
}

// Queued returns how many runs are waiting for a Runner.
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waiters)
}

// release hands r to the oldest waiting run of the best rank, or
// returns it to the idle set when no run waits.
func (p *Pool) release(r *Runner) {
	p.mu.Lock()
	if len(p.waiters) == 0 {
		p.idle = append(p.idle, r)
		p.mu.Unlock()
		return
	}
	best := 0
	for i, w := range p.waiters {
		if w.claim.rank.Load() < p.waiters[best].claim.rank.Load() {
			best = i
		}
	}
	w := p.waiters[best]
	p.waiters = slices.Delete(p.waiters, best, best+1)
	p.mu.Unlock()
	w.ch <- r
}

// run executes one request on r: ML hub injection, retries, and the
// per-run observation.
func (p *Pool) run(r *Runner, req RunRequest) (RunOutcome, error) {
	if req.Opts.Interventions.ML && req.Opts.Interventions.MLHub == nil {
		req.Opts.Interventions.MLHub = p.mlHub
	}
	var start time.Time
	if p.opts.Observe != nil {
		start = time.Now()
	}
	res, attempts, err := p.runWithRetry(r, req.Opts)
	if p.opts.Observe != nil {
		p.opts.Observe(time.Since(start), attempts, err)
	}
	if err != nil {
		return RunOutcome{}, fmt.Errorf("run %v/%v/%d: %w",
			req.Key.Scenario, req.Key.Gap, req.Key.Rep, err)
	}
	return RunOutcome{Key: req.Key, Outcome: res.Outcome, Trace: res.Trace}, nil
}

// runWithRetry retries transient failures up to opts.Retries extra
// attempts. Panics are never retried: a panic means the engine's state
// is suspect, not that the fault might clear.
func (p *Pool) runWithRetry(r *Runner, opts core.Options) (*core.Result, int, error) {
	backoff := retryBaseBackoff
	for attempt := 1; ; attempt++ {
		res, err := p.runOnce(r, opts)
		if err == nil {
			return res, attempt, nil
		}
		if attempt > p.opts.Retries || errors.Is(err, ErrRunPanic) {
			if attempt > 1 {
				err = fmt.Errorf("%w (after %d attempts)", err, attempt)
			}
			return nil, attempt, err
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, retryMaxBackoff)
	}
}

// runOnce executes a single attempt with panic isolation. After a panic
// the Runner is discarded wholesale (its platform may be mid-step and
// unrecoverable); the next run on it builds a fresh platform.
func (p *Pool) runOnce(r *Runner, opts core.Options) (res *core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			*r = Runner{}
			res, err = nil, fmt.Errorf("%w: %v\n%s", ErrRunPanic, v, debug.Stack())
		}
	}()
	return p.opts.Run(r, opts)
}
