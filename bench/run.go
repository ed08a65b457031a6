package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"adasim/internal/client"
)

// sizes is the fixed amount of work of each set-up and check. The
// benchmark uses fullSizes; the smoke test shrinks them.
type sizes struct {
	setups      int // set-ups per run; setup_s is their median
	warmSpecs   int // warm-hits: distinct job specs
	warmRecords int // warm-hits: finished job records set-up leaves (the daemon's cap)
	coldPrefill int // cold-sim: untimed cold jobs
	coldRecheck int // cold-sim: sampled jobs resubmitted after the timed phase
	poolSpecs   int // mixed-durable: single-run specs computed in set-up
	p99Samples  int // interactive jobs a run needs for its p99 to count
}

var fullSizes = sizes{
	setups:      3,
	warmSpecs:   128,
	warmRecords: 4096,
	coldPrefill: 50,
	coldRecheck: 32,
	poolSpecs:   512,
	p99Samples:  1000,
}

// commonFlags are the daemon flags every workload shares.
var commonFlags = []string{"-workers", "2", "-queue", "256", "-log-level", "error"}

type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	daemon   string
	workDir  string
	sz       sizes
}

// run is one benchmark run of one workload.
type run struct {
	cfg  runConfig
	w    workload
	seed int64
	dir  string
	d    *daemon
	c    *client.Client

	mu     sync.Mutex
	checks []*check
	// jobRuns/jobHits accumulate interactive jobs' runs and cache-served
	// runs over every timed phase, for the hit-share check.
	jobRuns, jobHits int
}

// check is one named correctness check; any failure fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Fails  int    `json:"fails"`
	Detail string `json:"detail"`
}

func (r *run) check(name string) *check {
	for _, c := range r.checks {
		if c.Name == name {
			return c
		}
	}
	c := &check{Name: name, OK: true}
	r.checks = append(r.checks, c)
	return c
}

// failf records a failure of the named check; the first detail is kept.
func (r *run) failf(name, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.check(name)
	if c.OK {
		c.Detail = fmt.Sprintf(format, args...)
	}
	c.OK = false
	c.Fails++
}

// pass records the named check as run, keeping an earlier failure.
func (r *run) pass(name, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.check(name); c.OK {
		c.Detail = detail
	}
}

// checkHitShare requires the share of interactive job runs served from
// cache to lie in [lo, hi].
func (r *run) checkHitShare(lo, hi float64) {
	share := ratio(float64(r.jobHits), float64(r.jobRuns))
	if r.jobRuns == 0 || share < lo || share > hi {
		r.failf("cache_hit_share", "%.4f of %d job runs served from cache, want [%g, %g]", share, r.jobRuns, lo, hi)
		return
	}
	r.pass("cache_hit_share", fmt.Sprintf("%.4f of %d job runs", share, r.jobRuns))
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// start spawns the daemon for the current set-up.
func (r *run) start() error {
	args := append(append([]string(nil), commonFlags...), r.w.flags(r.dir)...)
	if r.cfg.trace {
		args = append(args, "-pprof")
	}
	d, err := startDaemon(r.cfg.daemon, args)
	if err != nil {
		return err
	}
	r.d, r.c = d, newLoadClient(d.base)
	return nil
}

// restart drains the daemon with SIGTERM and boots a new one with the
// same flags and directories.
func (r *run) restart() error {
	err := r.d.stop()
	r.d = nil
	if err != nil {
		return err
	}
	return r.start()
}

// close stops the daemon and removes the working directory.
func (r *run) close() {
	if r.d != nil {
		r.d.kill()
		r.d = nil
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// phase is one timed closed-loop phase.
type phase struct {
	start, end        time.Time
	attempted, failed int
	firstErr          string
	tasks, runs       int
	jobLat, reportLat []float64 // ms, interactive jobs and bulk reports
	cpuMs             float64   // daemon CPU over the phase
}

func (ph *phase) seconds() float64 { return ph.end.Sub(ph.start).Seconds() }

// maxFailures stops a client whose operations keep failing (a dead
// daemon fails fast and would otherwise spin until the deadline).
const maxFailures = 100

// runPhase runs every load client in closed loop until dur elapses and
// the operations in flight complete. With spans non-nil each operation
// is recorded as a span tree.
func (r *run) runPhase(loads []loadFn, dur time.Duration, spans *spanLog) (*phase, error) {
	cpu0, err := r.d.cpuMs()
	if err != nil {
		return nil, err
	}
	ph := &phase{start: time.Now()}
	deadline := ph.start.Add(dur)
	parts := make([]phase, len(loads))
	var wg sync.WaitGroup
	for g, load := range loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &parts[g]
			for time.Now().Before(deadline) {
				op, err := load()
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == "" {
						p.firstErr = err.Error()
					}
					if p.failed >= maxFailures || !r.d.alive() {
						return
					}
					continue
				}
				p.tasks++
				p.runs += op.view.CompletedRuns
				if op.kind == "jobs" {
					p.jobLat = append(p.jobLat, op.latencyMs())
					r.mu.Lock()
					r.jobRuns += op.view.TotalRuns
					r.jobHits += op.view.CacheHits
					r.mu.Unlock()
				} else {
					p.reportLat = append(p.reportLat, op.latencyMs())
				}
				if spans != nil {
					spans.record(&op)
				}
			}
		}()
	}
	wg.Wait()
	ph.end = time.Now()
	cpu1, err := r.d.cpuMs()
	if err != nil {
		return nil, err
	}
	ph.cpuMs = cpu1 - cpu0
	for i := range parts {
		p := &parts[i]
		ph.attempted += p.attempted
		ph.failed += p.failed
		ph.tasks += p.tasks
		ph.runs += p.runs
		ph.jobLat = append(ph.jobLat, p.jobLat...)
		ph.reportLat = append(ph.reportLat, p.reportLat...)
		if ph.firstErr == "" {
			ph.firstErr = p.firstErr
		}
	}
	return ph, nil
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checks    []*check `json:"checks"`
	// EndToEnd is measured with tracing off; in a traced run it comes
	// from the untraced reference phase.
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer,omitempty"`
	// JobSamples and TailPercentile state what the latency percentiles
	// rest on: the highest percentile with at least ten samples beyond it.
	JobSamples     int     `json:"job_samples"`
	TailPercentile float64 `json:"tail_percentile"`
	TailMs         float64 `json:"tail_ms"`
}

// runWorkload performs one full run: repeated set-ups, the timed
// phase(s), checks and, when tracing, the per-layer measurements.
func runWorkload(cfg runConfig, name string) (*result, error) {
	w, err := newWorkload(name, cfg.sz)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, w: w, seed: cfg.seed, dir: filepath.Join(cfg.workDir, name)}
	defer r.close()

	var setups []float64
	for i := 0; i < cfg.sz.setups; i++ {
		if r.d != nil {
			err := r.d.stop()
			r.d = nil
			if err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(r.dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := r.start(); err != nil {
			return nil, err
		}
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	loads := w.clients(r)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Workload: name, Seed: cfg.seed, Traced: cfg.trace}
	var untraced, traced *phase
	var layers []metric
	if !cfg.trace {
		if untraced, err = r.runPhase(loads, dur, nil); err != nil {
			return nil, err
		}
	} else {
		// Half the time untraced, as the reference the tracing overhead is
		// measured against, then half traced.
		if untraced, err = r.runPhase(loads, dur/2, nil); err != nil {
			return nil, err
		}
		if traced, layers, err = r.tracedPhase(loads, dur/2, untraced); err != nil {
			return nil, err
		}
	}
	firstErr := ""
	for _, ph := range []*phase{untraced, traced} {
		if ph != nil {
			res.Attempted += ph.attempted
			res.Failed += ph.failed
			if firstErr == "" {
				firstErr = ph.firstErr
			}
		}
	}
	if res.Failed > 0 {
		r.failf("no_failed_ops", "%d of %d operations failed; first: %s", res.Failed, res.Attempted, firstErr)
	} else {
		r.pass("no_failed_ops", fmt.Sprintf("%d operations", res.Attempted))
	}
	// Only an untraced run reports the p99, so only it needs the samples.
	if n := len(untraced.jobLat); !cfg.trace {
		if n < cfg.sz.p99Samples {
			r.failf("p99_samples", "%d interactive jobs, the p99 needs %d", n, cfg.sz.p99Samples)
		} else {
			r.pass("p99_samples", fmt.Sprintf("%d interactive jobs", n))
		}
	}
	if err := w.finish(r); err != nil {
		return nil, err
	}
	rss, err := r.d.rssPeakMB()
	if err != nil {
		return nil, err
	}
	res.EndToEnd = endToEnd(untraced, setups, rss)
	res.PerLayer = layers
	res.JobSamples = len(untraced.jobLat)
	if p, ok := tailPercentile(res.JobSamples); ok {
		res.TailPercentile = p
		res.TailMs = percentile(sortedCopy(untraced.jobLat), p)
	}
	res.Checks = r.checks
	res.Correct = r.correct()
	return res, nil
}

// endToEnd computes the end-to-end metrics of a phase; their names,
// units and order match BENCHMARK.json.
func endToEnd(ph *phase, setups []float64, rssMB float64) []metric {
	lat := sortedCopy(ph.jobLat)
	p50, p99 := 0.0, 0.0
	if len(lat) > 0 {
		p50, p99 = percentile(lat, 50), percentile(lat, 99)
	}
	secs := ph.seconds()
	return []metric{
		{"setup_s", median(setups), "s"},
		{"tasks_per_s", float64(ph.tasks) / secs, "tasks/s"},
		{"runs_per_s", float64(ph.runs) / secs, "runs/s"},
		{"job_latency_p50_ms", p50, "ms"},
		{"job_latency_p99_ms", p99, "ms"},
		{"daemon_cpu_ms_per_task", ratio(ph.cpuMs, float64(ph.tasks)), "ms"},
		{"daemon_rss_peak_mb", rssMB, "MiB"},
	}
}
