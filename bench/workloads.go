package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adasim/internal/aebs"
	"adasim/internal/client"
	"adasim/internal/core"
	"adasim/internal/fi"
	"adasim/internal/report"
	"adasim/internal/scenario"
	"adasim/internal/service"
)

// Spec shapes shared by the workloads: the paper's mixed fault against
// the full intervention stack (driver + firmware check + independent
// AEB), either one run (S1 at 60 m) or twelve (S1–S6 at 60 m, 2 reps).
const (
	shortSteps = 600
	longSteps  = 2000
)

// Seed streams keep each workload's generated inputs disjoint.
const (
	streamWarm = iota + 1
	streamCold
	streamPool
	streamFresh
	streamReport
)

func jobSpec(baseSeed int64, multi bool, steps int) service.JobSpec {
	s := service.JobSpec{
		Steps:    steps,
		BaseSeed: baseSeed,
		Fault:    fi.DefaultParams(fi.TargetMixed),
		Interventions: core.InterventionSet{
			Driver:      true,
			SafetyCheck: true,
			AEB:         aebs.SourceIndependent,
		},
		Gaps: []float64{60},
	}
	if multi {
		s.Scenarios = scenario.All()
		s.Reps = 2
	} else {
		s.Scenarios = []scenario.ID{scenario.S1}
		s.Reps = 1
	}
	return s
}

// specSeed is the n-th base seed of a stream under the run seed: the
// same (seed, stream, n) always names the same input, and distinct ones
// collide with negligible probability.
func specSeed(seed int64, stream, n uint64) int64 {
	z := splitmix64(uint64(seed))
	z = splitmix64(z ^ stream)
	z = splitmix64(z ^ n)
	return int64(z >> 1)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opResult is one closed-loop operation as its client saw it: submit,
// wait for the terminal event, read the final status, fetch the results
// body. The four timestamps after start end each of those calls.
type opResult struct {
	kind                             string // route segment: "jobs" or "reports"
	start, submitted, waited, viewed time.Time
	end                              time.Time // last byte of the results body
	view                             service.TaskView
	body                             []byte
}

func (o *opResult) latencyMs() float64 { return msBetween(o.start, o.end) }

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// requestTimeout bounds every request, so a hung daemon fails the run
// instead of stalling it; the longest task any workload submits takes
// tens of milliseconds.
const requestTimeout = 10 * time.Second

// newLoadClient is the benchmark's view of adasimd: a rejected request
// (429/503) is a failure, never silently retried.
func newLoadClient(base string) *client.Client {
	c := client.New(base)
	c.Retries = -1
	c.HTTP.Timeout = requestTimeout
	return c
}

// doTask submits spec to the kind's route, waits for the task to finish
// and fetches its results.
func doTask(c *client.Client, kind string, spec any) (opResult, error) {
	op := opResult{kind: kind, start: time.Now()}
	view, err := c.SubmitTask(kind, spec, "")
	if err != nil {
		return op, fmt.Errorf("submit: %w", err)
	}
	op.submitted = time.Now()
	if op.view, err = await(c, view.ID, &op.waited); err != nil {
		return op, err
	}
	op.viewed = time.Now()
	if op.body, err = c.TaskResults(view.ID); err != nil {
		return op, fmt.Errorf("results %s: %w", view.ID, err)
	}
	op.end = time.Now()
	return op, nil
}

// await blocks on the task's event stream until the daemon closes it
// after the terminal event, then reads the final status, as `adasimctl
// submit -wait` ends on the status read that sees the task done. The
// stream, unlike a status poll on a timer, ends the moment the task
// does, so the wait adds no sleep quantum to a latency. waited, when
// non-nil, receives the moment the stream ended.
func await(c *client.Client, id string, waited *time.Time) (service.TaskView, error) {
	if err := c.WatchTask(id, func(service.TimelineEvent) {}); err != nil {
		return service.TaskView{}, fmt.Errorf("watch %s: %w", id, err)
	}
	if waited != nil {
		*waited = time.Now()
	}
	view, err := c.Task(id)
	if err != nil {
		return view, fmt.Errorf("status %s: %w", id, err)
	}
	if view.Status != service.StatusDone {
		return view, fmt.Errorf("task %s %s: %s", view.ID, view.Status, view.Error)
	}
	return view, nil
}

// submitWait submits spec and waits for it to finish, without fetching
// results (set-up traffic whose bodies nobody reads).
func submitWait(c *client.Client, kind string, spec any) (service.TaskView, error) {
	view, err := c.SubmitTask(kind, spec, "")
	if err != nil {
		return view, err
	}
	return await(c, view.ID, nil)
}

// parallel runs fn(i) for i in [0, n) on two goroutines, the load
// budget of every phase, and returns the first error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[g] = err
					next.Store(int64(n)) // stop both goroutines
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loadFn performs one closed-loop operation of one client.
type loadFn func() (opResult, error)

// replayCase is one job spec the traced run replays in-process, with
// the SHA-256 of the results body the daemon served for it.
type replayCase struct {
	spec service.JobSpec
	sum  [sha256.Size]byte
}

// workload is one traffic mix against adasimd.
type workload interface {
	name() string
	// flags are the daemon flags beyond the common ones; dir is the
	// set-up's private working directory.
	flags(dir string) []string
	// setup does the workload's fixed amount of set-up work on a freshly
	// started daemon (r.d); it may replace r.d.
	setup(r *run) error
	// clients returns one closed-loop operation per load client.
	clients(r *run) []loadFn
	// finish runs the workload's checks after the timed phases.
	finish(r *run) error
	// replayCases is the fixed sample the traced run replays in-process.
	replayCases() []replayCase
}

// newWorkload builds a workload by name.
func newWorkload(name string, sz sizes) (workload, error) {
	switch name {
	case "warm-hits":
		return &warmHits{sz: sz}, nil
	case "cold-sim":
		return &coldSim{sz: sz}, nil
	case "mixed-durable":
		return &mixedDurable{sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %v)", name, workloadNames)
}

var workloadNames = []string{"warm-hits", "cold-sim", "mixed-durable"}

// ---------------------------------------------------------------------
// warm-hits

// warmHits serves every job from the memory cache on a daemon already
// holding its finished-record cap: no simulation runs, so it prices the
// per-task path (HTTP, prepare, queue, cache lookup, finalize/prune,
// serve), both the sole-run and the marshal serve. One client, because
// two oversubscribe the two cores and their throughput drifts.
type warmHits struct {
	sz    sizes
	specs []service.JobSpec
	refs  [][]byte
}

func (w *warmHits) name() string          { return "warm-hits" }
func (w *warmHits) flags(string) []string { return nil }

func (w *warmHits) setup(r *run) error {
	n := w.sz.warmSpecs
	w.specs = make([]service.JobSpec, n)
	w.refs = make([][]byte, n)
	for i := range w.specs {
		w.specs[i] = jobSpec(specSeed(r.seed, streamWarm, uint64(i)), i%2 == 1, shortSteps)
	}
	// Every spec once, cold: its body is the reference every later serve
	// must equal byte for byte.
	if err := parallel(n, func(i int) error {
		op, err := doTask(r.c, "jobs", w.specs[i])
		w.refs[i] = op.body
		return err
	}); err != nil {
		return fmt.Errorf("warm-hits reference pass: %w", err)
	}
	// Resubmit until the daemon retains its finished-record cap, so the
	// timed phase runs at the steady-state record count instead of one
	// that grows with the run's length.
	if err := parallel(w.sz.warmRecords-n, func(i int) error {
		_, err := submitWait(r.c, "jobs", w.specs[i%n])
		return err
	}); err != nil {
		return fmt.Errorf("warm-hits prefill: %w", err)
	}
	var health service.HealthResponse
	if err := r.c.GetJSON("/healthz", &health); err != nil {
		return err
	}
	if got := health.Jobs[service.StatusDone]; got != w.sz.warmRecords {
		return fmt.Errorf("warm-hits prefill: daemon retains %d finished jobs, want %d", got, w.sz.warmRecords)
	}
	return nil
}

func (w *warmHits) clients(r *run) []loadFn {
	rng := rand.New(rand.NewSource(r.seed))
	return []loadFn{func() (opResult, error) {
		i := rng.Intn(len(w.specs))
		op, err := doTask(r.c, "jobs", w.specs[i])
		if err != nil {
			return op, err
		}
		if !bytes.Equal(op.body, w.refs[i]) {
			r.failf("bytes_identical", "spec %d: results body differs from its set-up reference", i)
		}
		return op, nil
	}}
}

func (w *warmHits) finish(r *run) error {
	r.checkHitShare(1, 1)
	r.pass("bytes_identical", "every results body equals its reference")
	return nil
}

func (w *warmHits) replayCases() []replayCase {
	var cases []replayCase
	for i := 0; i < len(w.specs) && len(cases) < 8; i++ {
		cases = append(cases, replayCase{spec: w.specs[i], sum: sha256.Sum256(w.refs[i])})
	}
	return cases
}

// ---------------------------------------------------------------------
// cold-sim

// coldSim submits only never-seen 12-run jobs, so every run simulates:
// it shows core and experiments changes and should not move for
// service-path changes. Two clients keep the serial scheduler fed.
type coldSim struct {
	sz   sizes
	seed int64
	next atomic.Uint64
	// done holds each client's finished jobs (spec index, body digest).
	done [2][]coldDone
}

type coldDone struct {
	n   uint64
	sum [sha256.Size]byte
}

func (w *coldSim) name() string          { return "cold-sim" }
func (w *coldSim) flags(string) []string { return nil }

func (w *coldSim) spec(n uint64) service.JobSpec {
	return jobSpec(specSeed(w.seed, streamCold, n), true, longSteps)
}

func (w *coldSim) setup(r *run) error {
	w.seed = r.seed
	w.next.Store(0)
	w.done = [2][]coldDone{}
	return parallel(w.sz.coldPrefill, func(int) error {
		_, err := submitWait(r.c, "jobs", w.spec(w.next.Add(1)-1))
		return err
	})
}

func (w *coldSim) clients(r *run) []loadFn {
	fns := make([]loadFn, 2)
	for g := range fns {
		fns[g] = func() (opResult, error) {
			n := w.next.Add(1) - 1
			op, err := doTask(r.c, "jobs", w.spec(n))
			if err == nil {
				w.done[g] = append(w.done[g], coldDone{n: n, sum: sha256.Sum256(op.body)})
			}
			return op, err
		}
	}
	return fns
}

// recheckWindow bounds the recheck sample to the newest jobs, whose
// runs the daemon's 4096-entry memory cache still holds (256 jobs of 12
// runs, plus the ~2 in flight, fit): older ones have been evicted and
// would simulate again instead of serving warm.
const recheckWindow = 256

// finish resubmits a seeded sample of the timed phase's jobs: now warm,
// they must serve the same bytes the cold runs produced.
func (w *coldSim) finish(r *run) error {
	r.checkHitShare(0, 0)
	sample := w.sample(w.sz.coldRecheck, recheckWindow)
	for _, cd := range sample {
		op, err := doTask(r.c, "jobs", w.spec(cd.n))
		if err != nil {
			return fmt.Errorf("cold-sim recheck: %w", err)
		}
		if sha256.Sum256(op.body) != cd.sum {
			r.failf("cold_vs_warm", "job %d: warm resubmission differs from its cold results", cd.n)
		}
		if op.view.CacheHits != op.view.TotalRuns {
			r.failf("cold_vs_warm", "job %d: resubmission served %d of %d runs from cache", cd.n, op.view.CacheHits, op.view.TotalRuns)
		}
	}
	r.pass("cold_vs_warm", fmt.Sprintf("%d resubmitted jobs", len(sample)))
	return nil
}

// sample picks k of the newest window finished jobs with a generator
// seeded from the run seed, in spec order so the pick does not depend
// on which client ran which job.
func (w *coldSim) sample(k, window int) []coldDone {
	all := append(append([]coldDone(nil), w.done[0]...), w.done[1]...)
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	if len(all) > window {
		all = all[:window]
	}
	rng := rand.New(rand.NewSource(w.seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > k {
		all = all[:k]
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n < all[j].n })
	return all
}

func (w *coldSim) replayCases() []replayCase {
	var cases []replayCase
	for _, cd := range w.sample(4, recheckWindow) {
		cases = append(cases, replayCase{spec: w.spec(cd.n), sum: cd.sum})
	}
	return cases
}

// ---------------------------------------------------------------------
// mixed-durable

// mixedDurable runs bulk reports beside interactive single-run jobs on
// a daemon with the disk cache and the journal: fsynced journal appends
// and segment appends from cold runs happen alongside disk reads of
// pool entries the 256-entry memory cache has evicted, and interactive
// and bulk work share the priority queue.
type mixedDurable struct {
	sz   sizes
	pool []service.JobSpec
	refs [][]byte
}

func (w *mixedDurable) name() string { return "mixed-durable" }

func (w *mixedDurable) flags(dir string) []string {
	return []string{
		"-cache-dir", filepath.Join(dir, "cache"),
		"-journal-dir", filepath.Join(dir, "journal"),
		"-cache-entries", "256",
	}
}

// setup computes the pool, then drains the daemon with SIGTERM and
// restarts it on the same directories: the timed phase starts from a
// recovered journal and a segment store holding the pool, with a cold
// memory cache.
func (w *mixedDurable) setup(r *run) error {
	n := w.sz.poolSpecs
	w.pool = make([]service.JobSpec, n)
	w.refs = make([][]byte, n)
	for i := range w.pool {
		w.pool[i] = jobSpec(specSeed(r.seed, streamPool, uint64(i)), false, shortSteps)
	}
	if err := parallel(n, func(i int) error {
		op, err := doTask(r.c, "jobs", w.pool[i])
		w.refs[i] = op.body
		return err
	}); err != nil {
		return fmt.Errorf("mixed-durable pool: %w", err)
	}
	return r.restart()
}

func (w *mixedDurable) clients(r *run) []loadFn {
	rng := rand.New(rand.NewSource(r.seed))
	var fresh, reports uint64
	interactive := func() (opResult, error) {
		if rng.Intn(2) == 0 {
			i := rng.Intn(len(w.pool))
			op, err := doTask(r.c, "jobs", w.pool[i])
			if err == nil && !bytes.Equal(op.body, w.refs[i]) {
				r.failf("bytes_identical", "pool spec %d: results body differs from its set-up reference", i)
			}
			return op, err
		}
		fresh++
		return doTask(r.c, "jobs", jobSpec(specSeed(r.seed, streamFresh, fresh), false, shortSteps))
	}
	bulk := func() (opResult, error) {
		reports++
		spec := report.Spec{
			Artifacts: []string{report.Table4},
			Reps:      1,
			Steps:     shortSteps,
			BaseSeed:  specSeed(r.seed, streamReport, reports),
		}
		op, err := doTask(r.c, "reports", spec)
		if err == nil && op.view.CacheHits != 0 {
			r.failf("reports_cold", "report %s served %d runs from cache, want all cold", op.view.ID, op.view.CacheHits)
		}
		return op, err
	}
	return []loadFn{interactive, bulk}
}

func (w *mixedDurable) finish(r *run) error {
	r.checkHitShare(0.4, 0.6)
	r.pass("bytes_identical", "every pool job's body equals its reference")
	r.pass("reports_cold", "no report run served from cache")
	after, err := r.d.metrics()
	if err != nil {
		return err
	}
	if n := after.sum("adasim_cache_corrupt_records_total", nil); n != 0 {
		r.failf("segstore_clean", "%v corrupt segment records", n)
	} else {
		r.pass("segstore_clean", "0 corrupt records")
	}
	if n := after.sum("adasim_journal_append_errors_total", nil); n != 0 {
		r.failf("journal_clean", "%v journal append errors", n)
	} else {
		r.pass("journal_clean", "0 append errors")
	}
	return nil
}

func (w *mixedDurable) replayCases() []replayCase {
	var cases []replayCase
	for i := 0; i < len(w.pool) && len(cases) < 48; i++ {
		cases = append(cases, replayCase{spec: w.pool[i], sum: sha256.Sum256(w.refs[i])})
	}
	return cases
}
