package experiments

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"adasim/internal/core"
	"adasim/internal/metrics"
	"adasim/internal/scenario"
)

// mapCache is an in-memory Cache that records its Puts.
type mapCache struct {
	mu   sync.Mutex
	m    map[string]metrics.Outcome
	puts []string
}

func (c *mapCache) Get(key string) (metrics.Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.m[key]
	return out, ok
}

func (c *mapCache) Put(key string, out metrics.Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = out
	c.puts = append(c.puts, key)
}

// fakeOutcome is the synthetic outcome of the run with the given seed.
func fakeOutcome(seed int64) metrics.Outcome {
	return metrics.Outcome{Steps: int(seed), Duration: float64(seed) / 10}
}

// fakeExec executes runs synthetically, failing the runs whose seed is
// in fail; the others finish and fire onDone. It records the seeds it
// was asked to run.
type fakeExec struct {
	t      *testing.T
	banned bool // fail the test if called at all
	fail   map[int64]bool
	ran    []int64
}

func (e *fakeExec) Execute(reqs []RunRequest, onDone func(i int, ro RunOutcome)) ([]RunOutcome, error) {
	if e.banned {
		e.t.Error("executor called for a fully cache-served batch")
	}
	outs := make([]RunOutcome, len(reqs))
	var first error
	for i, req := range reqs {
		e.ran = append(e.ran, req.Opts.Seed)
		if e.fail[req.Opts.Seed] {
			if first == nil {
				first = fmt.Errorf("run %d: injected failure", req.Opts.Seed)
			}
			continue
		}
		outs[i] = RunOutcome{Key: req.Key, Outcome: fakeOutcome(req.Opts.Seed)}
		if onDone != nil {
			onDone(i, outs[i])
		}
	}
	return outs, first
}

// TestResolve pins the cache-first rule: lookups for keyed runs, only
// misses executed (no executor call when all hit), fresh outcomes
// written back, finished runs of a failed batch written back, keyless
// runs never cached, and outcomes in request order.
func TestResolve(t *testing.T) {
	// Seeds 1..4; run i is keyed "k<seed>" unless listed as keyless.
	reqs := func(keyless ...int64) []RunRequest {
		out := make([]RunRequest, 4)
		for i := range out {
			seed := int64(i + 1)
			out[i] = RunRequest{
				Key:  RunKey{Scenario: scenario.S1, Gap: 60, Rep: i},
				Opts: core.Options{Seed: seed},
			}
			if !slices.Contains(keyless, seed) {
				out[i].CacheKey = fmt.Sprintf("k%d", seed)
			}
		}
		return out
	}
	cases := []struct {
		name    string
		nilC    bool
		cached  []int64 // seeds already in the cache
		keyless []int64
		fail    []int64
		wantRan []int64
		wantPut []string
		wantErr bool
		// (completed, hits) as counted by the tally
		completed, hits int
	}{
		{name: "nil cache", nilC: true, wantRan: []int64{1, 2, 3, 4}, completed: 4},
		{name: "all hits", cached: []int64{1, 2, 3, 4}, completed: 4, hits: 4},
		{name: "all misses", wantRan: []int64{1, 2, 3, 4},
			wantPut: []string{"k1", "k2", "k3", "k4"}, completed: 4},
		{name: "mixed", cached: []int64{1, 3}, wantRan: []int64{2, 4},
			wantPut: []string{"k2", "k4"}, completed: 4, hits: 2},
		{name: "keyless", cached: []int64{2}, keyless: []int64{1, 4}, wantRan: []int64{1, 3, 4},
			wantPut: []string{"k3"}, completed: 4, hits: 1},
		{name: "execute error", cached: []int64{1}, fail: []int64{3}, wantRan: []int64{2, 3, 4},
			wantPut: []string{"k2", "k4"}, wantErr: true, completed: 3, hits: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exec := &fakeExec{t: t, banned: tc.wantRan == nil, fail: map[int64]bool{}}
			for _, s := range tc.fail {
				exec.fail[s] = true
			}
			var cache Cache
			mc := &mapCache{m: map[string]metrics.Outcome{}}
			if !tc.nilC {
				for _, s := range tc.cached {
					mc.m[fmt.Sprintf("k%d", s)] = fakeOutcome(s)
				}
				cache = mc
			}
			var lastDone, lastHits int
			tally := &Tally{OnAdd: func(done, hits int) { lastDone, lastHits = done, hits }}

			outs, err := Resolve(exec, cache, reqs(tc.keyless...), tally)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if !slices.Equal(exec.ran, tc.wantRan) {
				t.Errorf("executed seeds %v, want %v", exec.ran, tc.wantRan)
			}
			if !slices.Equal(mc.puts, tc.wantPut) {
				t.Errorf("puts %v, want %v", mc.puts, tc.wantPut)
			}
			if completed, hits := tally.Runs(), tally.Hits(); completed != tc.completed || hits != tc.hits {
				t.Errorf("tally (completed, hits) = (%d, %d), want (%d, %d)", completed, hits, tc.completed, tc.hits)
			}
			if lastDone != tc.completed || lastHits != tc.hits {
				t.Errorf("last OnAdd = (%d, %d), want (%d, %d)", lastDone, lastHits, tc.completed, tc.hits)
			}
			if tc.wantErr {
				return
			}
			if len(outs) != 4 {
				t.Fatalf("%d outcomes, want 4", len(outs))
			}
			for i, out := range outs {
				seed := int64(i + 1)
				if out.Key.Rep != i || out.Outcome != fakeOutcome(seed) {
					t.Errorf("outcome %d = %+v, want run %d's", i, out, seed)
				}
			}
		})
	}
}

// fanoutExec finishes every run on its own goroutine, all released at
// once, so onDone calls race.
type fanoutExec struct{}

func (fanoutExec) Execute(reqs []RunRequest, onDone func(i int, ro RunOutcome)) ([]RunOutcome, error) {
	outs := make([]RunOutcome, len(reqs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			outs[i] = RunOutcome{Key: req.Key, Outcome: fakeOutcome(req.Opts.Seed)}
			onDone(i, outs[i])
		}()
	}
	close(start)
	wg.Wait()
	return outs, nil
}

// TestTallyConcurrentAdds: with onDone fired from many goroutines at
// once, a tally shared by successive Resolve calls ends at exact totals,
// and OnAdd fires once per addition — the lookup addition of each call
// (a zero one included) plus one per finished run.
func TestTallyConcurrentAdds(t *testing.T) {
	const n, calls = 64, 3
	mc := &mapCache{m: map[string]metrics.Outcome{}}
	var adds atomic.Int64
	tally := &Tally{OnAdd: func(runs, hits int) {
		adds.Add(1)
		if hits > runs {
			t.Errorf("OnAdd(%d, %d): more hits than runs", runs, hits)
		}
	}}
	reqs := make([]RunRequest, n)
	for i := range reqs {
		reqs[i] = RunRequest{
			Key:      RunKey{Scenario: scenario.S1, Gap: 60, Rep: i},
			Opts:     core.Options{Seed: int64(i + 1)},
			CacheKey: fmt.Sprintf("k%d", i),
		}
	}
	// Call 1 is cold, so n runs finish concurrently; calls 2 and 3 are
	// all hits and execute nothing.
	for range calls {
		if _, err := Resolve(fanoutExec{}, mc, reqs, tally); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tally.Runs(), calls*n; got != want {
		t.Errorf("tally runs = %d, want %d", got, want)
	}
	if got, want := tally.Hits(), (calls-1)*n; got != want {
		t.Errorf("tally hits = %d, want %d", got, want)
	}
	if got, want := adds.Load(), int64(calls+n); got != want {
		t.Errorf("OnAdd fired %d times, want %d (one per lookup pass, one per run)", got, want)
	}
}
