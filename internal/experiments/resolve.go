package experiments

import (
	"sync/atomic"

	"adasim/internal/metrics"
)

// Executor executes a batch of runs with index-ordered results. Pool is
// the local implementation, shared by the CLIs, the campaign service,
// and remote worker nodes; the service's worker hub wraps it to fan
// batches out to remote workers. On error Execute still returns
// len(reqs) outcomes, with the runs that succeeded filled in. onDone is
// never called after Execute returns, on success or on error: Pool
// waits for its run goroutines, and the fleet hub takes a call's
// delivery lock before it fails the call.
type Executor interface {
	Execute(reqs []RunRequest, onDone func(i int, ro RunOutcome)) ([]RunOutcome, error)
}

// Cache is a content-addressed per-run outcome store keyed by
// RunFingerprint hashes. store.ResultCache implements it.
type Cache interface {
	Get(key string) (metrics.Outcome, bool)
	Put(key string, out metrics.Outcome)
}

// Tally counts what Resolve resolved: runs (cache-served ones
// included) and, of those, cache hits. Resolve adds the hits after its
// lookups, then one run per finished execution, from the executor's
// goroutines. The zero value is ready to use, and a Tally must not be
// copied once in use.
type Tally struct {
	runs, hits atomic.Int64
	// OnAdd, when non-nil, is called after every addition (a zero one
	// included) with the cumulative totals it produced. Calls arrive
	// concurrently with no ordering guarantee, so it must be safe for
	// concurrent use. Set it before the tally's first addition.
	OnAdd func(runs, hits int)
}

// Runs returns the runs resolved so far, cache hits included.
func (t *Tally) Runs() int { return int(t.runs.Load()) }

// Hits returns how many of the resolved runs the cache served.
func (t *Tally) Hits() int { return int(t.hits.Load()) }

// add counts runs resolved runs, hits of them from the cache; a nil
// tally counts nothing. Runs move first, so a reader that loads Hits
// before Runs never sees more hits than runs.
func (t *Tally) add(runs, hits int) {
	if t == nil {
		return
	}
	r := t.runs.Add(int64(runs))
	h := t.hits.Add(int64(hits))
	if t.OnAdd != nil {
		t.OnAdd(int(r), int(h))
	}
}

// Resolve executes a batch cache-first, the one rule under campaign
// jobs, report campaigns and explorations: every request that carries a
// CacheKey is looked up, only the misses go to exec (which is not
// called at all when every run hits), and each fresh outcome is written
// back. A request with an empty CacheKey is uncacheable and always
// executes. Outcomes keep the request order, so they never depend on
// executor shard count or cache warmth. cache and tally may be nil.
//
// When Execute fails, the runs that did finish are still written back
// (a failed Execute returns one slot per request): a corrected
// resubmission or an overlapping batch re-runs only what failed.
// Resolve adds to tally the hits after the lookups, then one run per
// finished execution; on error it returns no outcomes, and the tally
// holds the hits and the runs that finished.
func Resolve(exec Executor, cache Cache, reqs []RunRequest, tally *Tally) ([]RunOutcome, error) {
	outs := make([]RunOutcome, len(reqs))
	var missed []int
	hits := 0
	for i, req := range reqs {
		if cache != nil && req.CacheKey != "" {
			if out, ok := cache.Get(req.CacheKey); ok {
				outs[i] = RunOutcome{Key: req.Key, Outcome: out}
				hits++
				continue
			}
		}
		missed = append(missed, i)
	}
	tally.add(hits, hits)
	if len(missed) == 0 {
		return outs, nil
	}
	sub := reqs
	if len(missed) < len(reqs) {
		sub = make([]RunRequest, len(missed))
		for j, i := range missed {
			sub[j] = reqs[i]
		}
	}

	// succeeded[j] records per-run completion: executors invoke onDone
	// only for runs that finished without error, and never after Execute
	// returns (see Executor). As a safety net the slice is a per-call
	// allocation, never pooled, with atomic flags: should an executor
	// break that promise when its Execute fails (a cancellation tick, a
	// batch exhausting its lease attempts), the late store lands in a
	// slice reachable only from this call. A pooled slice could have been
	// recycled into another batch by then, and the stray store would
	// mark one of its never-run requests as succeeded and Put a
	// zero-value outcome under a real content hash. A flag observed true
	// always guards a valid outcome: executors fill the result slot
	// before invoking onDone.
	succeeded := make([]atomic.Bool, len(sub))
	fresh, err := exec.Execute(sub, func(j int, _ RunOutcome) {
		succeeded[j].Store(true)
		tally.add(1, 0)
	})
	for j, i := range missed {
		if err != nil && !succeeded[j].Load() {
			continue
		}
		outs[i] = fresh[j]
		if cache != nil && reqs[i].CacheKey != "" {
			cache.Put(reqs[i].CacheKey, fresh[j].Outcome)
		}
	}
	if err != nil {
		return nil, err
	}
	return outs, nil
}
