package experiments

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adasim/internal/core"
	"adasim/internal/fi"
	"adasim/internal/scenario"
)

// poolReqs builds n short runs with distinct seeds starting at seed0.
func poolReqs(n int, seed0 int64) []RunRequest {
	reqs := make([]RunRequest, n)
	for i := range reqs {
		reqs[i] = RunRequest{
			Key: RunKey{Scenario: scenario.S1, Gap: 60, Rep: i},
			Opts: core.Options{
				Scenario: scenario.DefaultSpec(scenario.S1, 60),
				Fault:    fi.DefaultParams(fi.TargetRelDistance),
				Seed:     seed0 + int64(i),
				Steps:    120,
			},
		}
	}
	return reqs
}

// TestPoolConcurrentExecuteBoundsInFlight: concurrent Execute calls on
// one pool never run more than its parallelism at once, and each call
// still gets its own index-ordered results.
func TestPoolConcurrentExecuteBoundsInFlight(t *testing.T) {
	const par = 2
	var inFlight, peak atomic.Int64
	pool := NewPoolWith(par, PoolOptions{
		Run: func(r *Runner, opts core.Options) (*core.Result, error) {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			defer inFlight.Add(-1)
			return r.Do(opts)
		},
	})
	want, err := NewPool(1).Execute(poolReqs(6, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := pool.Execute(poolReqs(6, 100), nil)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				if got[i].Key != want[i].Key || got[i].Outcome != want[i].Outcome {
					t.Errorf("concurrent call: run %d diverges from a solo pool", i)
				}
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > par {
		t.Errorf("peak in-flight runs = %d, pool parallelism %d", p, par)
	}
}

// TestPoolEmptyBatchIsFree: a fully cache-served task hands the pool an
// empty batch; it must return at once without allocating.
func TestPoolEmptyBatchIsFree(t *testing.T) {
	pool := NewPool(2)
	stop := pool.Bind(nil, func() error { return nil })
	allocs := testing.AllocsPerRun(100, func() {
		if outs, err := pool.Execute(nil, nil); len(outs) != 0 || err != nil {
			t.Fatal(outs, err)
		}
		if outs, err := stop.Execute(nil, nil); len(outs) != 0 || err != nil {
			t.Fatal(outs, err)
		}
	})
	if allocs != 0 {
		t.Errorf("empty batch allocs = %v, want 0", allocs)
	}
}

// TestPoolFailureKeepsPartialOutcomes: a failed run fails the batch,
// but every request still executes and the successful outcomes come
// back at their indexes.
func TestPoolFailureKeepsPartialOutcomes(t *testing.T) {
	reqs := poolReqs(4, 200)
	bad := reqs[1].Opts.Seed
	fault := errors.New("injected run fault")
	pool := NewPoolWith(2, PoolOptions{
		Run: func(r *Runner, opts core.Options) (*core.Result, error) {
			if opts.Seed == bad {
				return nil, fault
			}
			return r.Do(opts)
		},
	})
	var done atomic.Int64
	outs, err := pool.Execute(reqs, func(int, RunOutcome) { done.Add(1) })
	if !errors.Is(err, fault) || !strings.Contains(err.Error(), "run S1/60/1") {
		t.Fatalf("err = %v, want the injected fault with the run key", err)
	}
	if len(outs) != len(reqs) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(reqs))
	}
	want, err := NewPool(1).Execute(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if i == 1 {
			if outs[i] != (RunOutcome{}) {
				t.Error("failed run has an outcome")
			}
			continue
		}
		if outs[i].Outcome != want[i].Outcome {
			t.Errorf("run %d: partial outcome diverges", i)
		}
	}
	if done.Load() != 3 {
		t.Errorf("onDone fired %d times, want 3 (successful runs only)", done.Load())
	}
}

// TestPoolCancelStopsBetweenRuns: once the cancel check reports an
// error, no further run starts and the batch returns that error with
// the outcomes of the runs that did finish.
func TestPoolCancelStopsBetweenRuns(t *testing.T) {
	stopErr := errors.New("stop")
	var started atomic.Int64
	pool := NewPoolWith(1, PoolOptions{
		Run: func(r *Runner, opts core.Options) (*core.Result, error) {
			started.Add(1)
			return r.Do(opts)
		},
	})
	exec := pool.Bind(nil, func() error {
		if started.Load() >= 2 {
			return stopErr
		}
		return nil
	})
	reqs := poolReqs(6, 600)
	outs, err := exec.Execute(reqs, nil)
	if !errors.Is(err, stopErr) {
		t.Fatalf("err = %v, want the cancel check's error", err)
	}
	if len(outs) != len(reqs) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(reqs))
	}
	// The check runs once a Runner is free, and a one-Runner pool frees
	// its Runner only when the previous run finished, so exactly two runs
	// start.
	if got := started.Load(); got != 2 {
		t.Errorf("%d runs started, want 2", got)
	}
	if outs[0].Key != reqs[0].Key || outs[2] != (RunOutcome{}) {
		t.Error("partial outcomes not at their request indexes")
	}
}

// handoffPool is a one-Runner pool whose runs report their seed as they
// start and then hold the Runner until the test steps them, so a test
// decides exactly which runs wait when the Runner is freed.
func handoffPool() (pool *Pool, started chan int64, step chan struct{}) {
	started, step = make(chan int64), make(chan struct{})
	pool = NewPoolWith(1, PoolOptions{
		Run: func(r *Runner, opts core.Options) (*core.Result, error) {
			started <- opts.Seed
			<-step
			return r.Do(opts)
		},
	})
	return pool, started, step
}

// awaitQueued waits until n runs wait for a Runner.
func awaitQueued(t *testing.T, pool *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for pool.Queued() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d runs queued, want %d", pool.Queued(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestClaimStarted pins Claim.Started: it closes once every run of the
// claim's first batch holds a Runner, not while one still waits, and
// also when a batch stops early at a failed check.
func TestClaimStarted(t *testing.T) {
	pool, started, step := handoffPool()
	claim := NewClaim(false)
	done := make(chan error, 1)
	go func() {
		_, err := pool.Bind(claim, nil).Execute(poolReqs(2, 1), nil)
		done <- err
	}()
	<-started
	select {
	case <-claim.Started():
		t.Fatal("Started closed while a run waits for the Runner")
	default:
	}
	step <- struct{}{}
	<-started
	select {
	case <-claim.Started():
	case <-time.After(10 * time.Second):
		t.Fatal("Started still open with every run holding a Runner")
	}
	step <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	stop := errors.New("stop")
	stopped := NewClaim(true)
	if _, err := pool.Bind(stopped, func() error { return stop }).Execute(poolReqs(2, 1), nil); !errors.Is(err, stop) {
		t.Fatalf("stopped batch: %v, want the check's error", err)
	}
	select {
	case <-stopped.Started():
	default:
		t.Fatal("Started still open after the batch stopped at its check")
	}
}

// TestPoolHandoffOrder pins the handoff rule: a freed Runner goes to the
// earliest claim's waiting run of the best rank — a promoted bulk claim,
// then interactive claims and claimless callers (a claimless call counts
// as a claim made when it began), then bulk claims — and a claim reports
// unstarted runs as waiting.
func TestPoolHandoffOrder(t *testing.T) {
	pool, started, step := handoffPool()
	bulk, late, inter := NewClaim(true), NewClaim(true), NewClaim(false)
	var wg sync.WaitGroup
	submit := func(claim *Claim, seed int64, queued int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Bind(claim, nil).Execute(poolReqs(1, seed), nil); err != nil {
				t.Error(err)
			}
		}()
		awaitQueued(t, pool, queued)
	}
	// Seed 1 holds the Runner; then, in arrival order, a bulk run, an
	// interactive run, a claimless run, and a second bulk run wait.
	submit(nil, 1, 0)
	if got := <-started; got != 1 {
		t.Fatalf("first run seed %d, want 1", got)
	}
	submit(bulk, 10, 1)
	submit(inter, 20, 2)
	submit(nil, 30, 3)
	submit(late, 40, 4)
	if !bulk.Waiting() || !inter.Waiting() {
		t.Error("claims with a queued run do not report waiting")
	}
	var order []int64
	for i := 0; i < 4; i++ {
		if i == 2 && !late.Promote() {
			t.Fatal("first promotion of a bulk claim reported false")
		}
		step <- struct{}{}
		order = append(order, <-started)
	}
	step <- struct{}{}
	wg.Wait()
	// After two interactive-rank handoffs the later bulk claim is
	// promoted, so it overtakes the older, unpromoted one.
	if want := []int64{20, 30, 40, 10}; !slices.Equal(order, want) {
		t.Errorf("handoff order %v, want %v", order, want)
	}
	if bulk.Waiting() || late.Waiting() || inter.Waiting() {
		t.Error("finished claims still report waiting")
	}
	if late.Promote() || inter.Promote() {
		t.Error("Promote reported true for a promoted or interactive claim")
	}
}
