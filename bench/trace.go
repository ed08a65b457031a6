package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/service"
)

// span is one timed interval of one task, in microseconds since the
// traced phase began. Spans come from the benchmark's own calls into
// the client, plus the queue-wait and run intervals the daemon reports
// in the task's terminal view.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Task    string  `json:"task"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// Layers along a task's blocking path, in path order. Their self times
// tile the task's latency: the submit, wait, status and results calls
// tile the task span (which so has no self time of its own), and the
// daemon's queue-wait and run intervals are children of the wait,
// counted only where they overlap it (what the daemon does while the
// submit call is still returning is the submit's time).
var pathLayers = []string{"client.submit", "client.wait", "service.queue_wait", "service.run", "client.status", "client.results"}

// spanLog keeps a traced phase's spans and per-task self times in
// memory until the run writes them out.
type spanLog struct {
	base time.Time
	mu   sync.Mutex
	// spans is every span, in recording order.
	spans []span
	// self is each task's self time per layer (ms), by task kind.
	self map[string]map[string][]float64
	// latency is each task's latency (ms), by task kind.
	latency map[string][]float64
	// Per interactive job: waitMs is the whole wait (event stream plus
	// status read), finalizeServe the latency minus the daemon's queue
	// wait and run time.
	waitMs, finalizeServe []float64
}

func newSpanLog() *spanLog {
	return &spanLog{
		base:    time.Now(),
		self:    map[string]map[string][]float64{},
		latency: map[string][]float64{},
	}
}

func (l *spanLog) us(t time.Time) float64 { return float64(t.Sub(l.base).Nanoseconds()) / 1e3 }

func (l *spanLog) add(parent int, name, task string, start, end float64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Task: task, StartUs: start, EndUs: end})
	return id
}

// overlapUs is the length of [a0, a1] ∩ [b0, b1].
func overlapUs(a0, a1, b0, b1 float64) float64 {
	return math.Max(0, math.Min(a1, b1)-math.Max(a0, b0))
}

// record adds one finished operation's span tree and self times.
func (l *spanLog) record(op *opResult) {
	v := op.view
	start, submitted, waited := l.us(op.start), l.us(op.submitted), l.us(op.waited)
	viewed, end := l.us(op.viewed), l.us(op.end)
	// The daemon's wall-clock timestamps share the host clock with ours.
	s, q, f := l.us(v.SubmittedAt), l.us(*v.StartedAt), l.us(*v.FinishedAt)
	queue := overlapUs(s, q, submitted, waited)
	runUs := overlapUs(q, f, submitted, waited)
	self := map[string]float64{
		"client.submit":      submitted - start,
		"client.wait":        (waited - submitted) - queue - runUs,
		"service.queue_wait": queue,
		"service.run":        runUs,
		"client.status":      viewed - waited,
		"client.results":     end - viewed,
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	root := l.add(0, "task."+op.kind, v.ID, start, end)
	l.add(root, "client.submit", v.ID, start, submitted)
	wait := l.add(root, "client.wait", v.ID, submitted, waited)
	l.add(wait, "service.queue_wait", v.ID, s, q)
	l.add(wait, "service.run", v.ID, q, f)
	l.add(root, "client.status", v.ID, waited, viewed)
	l.add(root, "client.results", v.ID, viewed, end)

	bySelf := l.self[op.kind]
	if bySelf == nil {
		bySelf = map[string][]float64{}
		l.self[op.kind] = bySelf
	}
	for name, us := range self {
		bySelf[name] = append(bySelf[name], us/1e3)
	}
	lat := op.latencyMs()
	l.latency[op.kind] = append(l.latency[op.kind], lat)
	if op.kind == "jobs" {
		l.waitMs = append(l.waitMs, msBetween(op.submitted, op.viewed))
		l.finalizeServe = append(l.finalizeServe, lat-v.QueueWaitMillis-v.RunMillis)
	}
}

// layerRow is one layer's self time over a traced phase's tasks.
type layerRow struct {
	Layer      string  `json:"layer"`
	Tasks      int     `json:"tasks"`
	SelfP50Ms  float64 `json:"self_ms_p50"`
	SelfMeanMs float64 `json:"self_ms_mean"`
	// SelfMidMs is the mean self time over the typical tasks: those
	// whose latency lies between the 45th and 55th percentile. Summed
	// over the layers it decomposes the median latency.
	SelfMidMs float64 `json:"self_ms_mid"`
	// Share is SelfMidMs over the typical tasks' mean latency.
	Share float64 `json:"share"`
}

// blockingPath compares the typical task's summed per-layer self times
// with the median latency they decompose.
type blockingPath struct {
	Kind         string  `json:"kind"`
	Tasks        int     `json:"tasks"`
	LatencyP50Ms float64 `json:"latency_ms_p50"`
	SelfMidSumMs float64 `json:"self_ms_mid_sum"`
	// Coverage is SelfMidSumMs over LatencyP50Ms.
	Coverage float64 `json:"coverage"`
}

func (l *spanLog) layers(kind string) ([]layerRow, blockingPath) {
	lat := l.latency[kind]
	order := make([]int, len(lat))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lat[order[a]] < lat[order[b]] })
	mid := order[len(order)*45/100 : (len(order)*55+99)/100]
	var midLat float64
	for _, i := range mid {
		midLat += lat[i]
	}
	midLat /= float64(max(len(mid), 1))

	bp := blockingPath{Kind: kind, Tasks: len(lat), LatencyP50Ms: median(lat)}
	var rows []layerRow
	for _, name := range pathLayers {
		xs := l.self[kind][name]
		row := layerRow{Layer: name, Tasks: len(xs), SelfP50Ms: median(xs), SelfMeanMs: mean(xs)}
		for _, i := range mid {
			row.SelfMidMs += xs[i]
		}
		row.SelfMidMs /= float64(max(len(mid), 1))
		row.Share = ratio(row.SelfMidMs, midLat)
		bp.SelfMidSumMs += row.SelfMidMs
		rows = append(rows, row)
	}
	bp.Coverage = ratio(bp.SelfMidSumMs, bp.LatencyP50Ms)
	return rows, bp
}

// tracedPhase runs the traced half of a traced run: spans around every
// client call, a /metrics diff across the phase, a daemon CPU profile,
// then the in-process replay. It writes spans.json, layers.json and
// cpu.pprof under the trace directory and returns the per-layer metrics.
func (r *run) tracedPhase(loads []loadFn, dur time.Duration, untraced *phase) (*phase, []metric, error) {
	dir := filepath.Join(r.cfg.traceDir, r.w.name())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	before, err := r.d.metrics()
	if err != nil {
		return nil, nil, err
	}
	spans := newSpanLog()
	profDone := r.profile(filepath.Join(dir, "cpu.pprof"), dur)
	ph, err := r.runPhase(loads, dur, spans)
	profErr := <-profDone
	if err != nil {
		return nil, nil, err
	}
	if profErr != nil {
		return nil, nil, profErr
	}
	after, err := r.d.metrics()
	if err != nil {
		return nil, nil, err
	}
	rep := r.replay(r.w.replayCases())

	byKind := map[string][]layerRow{}
	jobRows, jobPath := spans.layers("jobs")
	byKind["jobs"] = jobRows
	if len(spans.latency["reports"]) > 0 {
		byKind["reports"], _ = spans.layers("reports")
	}
	layers := perLayer(delta(before, after), after, ph, untraced, spans, rep, r.d.readyMs, jobPath.Coverage)
	out := map[string]any{
		"workload":      r.w.name(),
		"seed":          r.seed,
		"blocking_path": jobPath,
		"layers":        byKind,
		"per_layer":     layers,
	}
	if err := writeJSON(filepath.Join(dir, "layers.json"), out); err != nil {
		return nil, nil, err
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), spans.spans); err != nil {
		return nil, nil, err
	}
	return ph, layers, nil
}

// profile captures a daemon CPU profile over dur (whole seconds, at
// least one) into path; the channel yields once the capture ends.
func (r *run) profile(path string, dur time.Duration) <-chan error {
	done := make(chan error, 1)
	secs := int(math.Max(1, math.Round(dur.Seconds())))
	url := fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", r.d.base, secs)
	go func() {
		hc := &http.Client{Timeout: time.Duration(secs+60) * time.Second}
		resp, err := hc.Get(url)
		if err != nil {
			done <- fmt.Errorf("cpu profile: %w", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			done <- fmt.Errorf("cpu profile: %s", resp.Status)
			return
		}
		f, err := os.Create(path)
		if err != nil {
			done <- err
			return
		}
		if _, err := io.Copy(f, resp.Body); err != nil {
			f.Close()
			done <- fmt.Errorf("cpu profile: %w", err)
			return
		}
		done <- f.Close()
	}()
	return done
}

// replayStats are the in-process timings of the replayed sample.
type replayStats struct {
	prepareUs, fingerprintUs, runnerDoMs float64
	stepNs, resetUs, stepsPerRun         float64
}

// replay re-executes the sample in-process, through the same calls the
// daemon makes: JobSpec.Prepare, JobSpec.Plan, FingerprintScratch,
// Runner.Do, and core.Platform stepped in blocks of 100 steps. Each
// spec's results must encode to the bytes the daemon served.
func (r *run) replay(cases []replayCase) replayStats {
	var prepare, fingerprint, do, blocks, resets, steps []float64
	var runner experiments.Runner
	var fp experiments.FingerprintScratch
	var plat *core.Platform
	for _, c := range cases {
		var prep service.PreparedTask
		for k := 0; k < 5; k++ {
			t0 := time.Now()
			p, err := c.spec.Prepare()
			prepare = append(prepare, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				r.failf("replay_identical", "prepare: %v", err)
				return replayStats{}
			}
			prep = p
		}
		plan, err := c.spec.Normalized().Plan()
		if err != nil {
			r.failf("replay_identical", "plan: %v", err)
			return replayStats{}
		}
		outs := make([]experiments.RunOutcome, len(plan))
		for i, pr := range plan {
			t0 := time.Now()
			key, err := fp.Fingerprint(pr.Opts)
			fingerprint = append(fingerprint, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil || key != pr.CacheKey {
				r.failf("replay_identical", "fingerprint of run %v: %q, %v", pr.Key, key, err)
			}

			t0 = time.Now()
			res, err := runner.Do(pr.Opts)
			do = append(do, msBetween(t0, time.Now()))
			if err != nil {
				r.failf("replay_identical", "run %v: %v", pr.Key, err)
				return replayStats{}
			}
			outs[i] = experiments.RunOutcome{Key: pr.Key, Outcome: res.Outcome}

			// The same run stepped by hand: reset and per-step cost.
			t0 = time.Now()
			if plat == nil {
				plat, err = core.NewPlatform(pr.Opts)
			} else {
				err = plat.Reset(pr.Opts, pr.Opts.Seed)
				resets = append(resets, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			if err != nil {
				r.failf("replay_identical", "platform for run %v: %v", pr.Key, err)
				return replayStats{}
			}
			n := 0
			for n < pr.Opts.Steps && !plat.Finished() {
				b0 := time.Now()
				k := 0
				for ; k < 100 && n < pr.Opts.Steps && !plat.Finished(); k++ {
					plat.Step()
					n++
				}
				if k == 100 {
					blocks = append(blocks, float64(time.Since(b0).Nanoseconds())/100)
				}
			}
			steps = append(steps, float64(n))
			if stepped := plat.Run().Outcome; stepped != res.Outcome {
				r.failf("replay_identical", "run %v: stepped outcome differs from Runner.Do", pr.Key)
			}
		}
		body, err := json.Marshal(service.ResultsResponse{
			SpecHash:  prep.Hash,
			TotalRuns: len(outs),
			Results:   outs,
			Aggregate: service.AggregateFor(outs),
		})
		if err != nil {
			r.failf("replay_identical", "encoding results: %v", err)
			continue
		}
		if sha256.Sum256(append(body, '\n')) != c.sum {
			r.failf("replay_identical", "spec %s: in-process results differ from the daemon's bytes", prep.Hash[:8])
		}
	}
	if len(cases) == 0 {
		r.failf("replay_identical", "no replay cases")
	} else {
		r.pass("replay_identical", fmt.Sprintf("%d specs, %d runs", len(cases), len(do)))
	}
	// Means where the sample mixes sizes (one- and twelve-run specs,
	// runs of different lengths), so the value does not flip between
	// modes; medians where samples are alike.
	return replayStats{
		prepareUs:     mean(prepare),
		fingerprintUs: median(fingerprint),
		runnerDoMs:    mean(do),
		stepNs:        median(blocks),
		resetUs:       median(resets),
		stepsPerRun:   mean(steps),
	}
}

// perLayer derives the per-layer metrics of a traced phase; names and
// units match BENCHMARK.json. d is the /metrics delta across the phase,
// after the scrape at its end (for levels).
func perLayer(d, after scrape, ph, untraced *phase, spans *spanLog, rep replayStats, readyMs, coverage float64) []metric {
	tasks := float64(ph.tasks)
	submitRoutes := []map[string]string{
		{"route": "/v1/tasks/jobs", "method": "POST"},
		{"route": "/v1/tasks/reports", "method": "POST"},
	}
	var subSum, subCount float64
	for _, m := range submitRoutes {
		subSum += d.sum("adasim_http_request_seconds_sum", m)
		subCount += d.sum("adasim_http_request_seconds_count", m)
	}
	requests := d.sum("adasim_http_requests_total", nil) - d.sum("adasim_http_requests_total", map[string]string{"route": "/metrics"})
	hits, misses := d.sum("adasim_cache_hits_total", nil), d.sum("adasim_cache_misses_total", nil)
	encHits := d.sum("adasim_cache_encoded_reads_total", map[string]string{"result": "hit"})
	encMisses := d.sum("adasim_cache_encoded_reads_total", map[string]string{"result": "miss"})
	live := after.sum("adasim_cache_segment_live_bytes", nil)
	dead := after.sum("adasim_cache_segment_dead_bytes", nil)
	tracedP50 := median(spans.latency["jobs"])

	return []metric{
		{"http.submit_server_ms", ratio(subSum, subCount) * 1e3, "ms"},
		{"http.results_server_ms", d.histMean("adasim_http_request_seconds", map[string]string{"route": "/v1/tasks/{id}/results", "method": "GET"}, 1e3), "ms"},
		{"http.requests_per_task", ratio(requests, tasks), "count"},
		{"client.submit_ms", median(spans.self["jobs"]["client.submit"]), "ms"},
		{"client.wait_ms", median(spans.waitMs), "ms"},
		{"client.results_ms", median(spans.self["jobs"]["client.results"]), "ms"},
		{"dispatcher.prepare_us", rep.prepareUs, "us"},
		{"dispatcher.queue_wait_ms", d.histMean("adasim_task_queue_wait_seconds", map[string]string{"class": "interactive"}, 1e3), "ms"},
		{"dispatcher.queue_wait_bulk_ms", d.histMean("adasim_task_queue_wait_seconds", map[string]string{"class": "bulk"}, 1e3), "ms"},
		{"dispatcher.task_run_ms.job", d.histMean("adasim_task_duration_seconds", map[string]string{"kind": "jobs"}, 1e3), "ms"},
		{"dispatcher.task_run_ms.report", d.histMean("adasim_task_duration_seconds", map[string]string{"kind": "reports"}, 1e3), "ms"},
		{"dispatcher.finalize_serve_ms", median(spans.finalizeServe), "ms"},
		{"dispatcher.aging_promotions", d.sum("adasim_aging_promotions_total", nil), "count"},
		{"cache.hit_ratio", ratio(hits-encHits, hits-encHits+misses-encMisses), "ratio"},
		{"cache.encoded_hit_ratio", ratio(encHits, encHits+encMisses), "ratio"},
		{"cache.disk_hits", d.sum("adasim_cache_disk_hits_total", nil), "count"},
		{"cache.evictions", d.sum("adasim_cache_evictions_total", nil), "count"},
		{"cache.disk_read_us", d.histMean("adasim_cache_disk_read_seconds", nil, 1e6), "us"},
		{"segstore.live_mb", live / (1 << 20), "MiB"},
		{"segstore.dead_ratio", ratio(dead, live+dead), "ratio"},
		{"segstore.compactions", d.sum("adasim_cache_compactions_total", nil), "count"},
		{"segstore.corrupt_records", after.sum("adasim_cache_corrupt_records_total", nil), "count"},
		{"journal.appends_per_task", ratio(d.sum("adasim_journal_appends_total", nil), tasks), "count"},
		{"journal.append_us", d.histMean("adasim_journal_append_seconds", nil, 1e6), "us"},
		{"runs.executed", d.sum("adasim_runs_total", map[string]string{"outcome": "ok"}), "count"},
		{"runs.duration_ms", d.histMean("adasim_run_duration_seconds", nil, 1e3), "ms"},
		{"runs.retries", d.sum("adasim_run_retries_total", nil), "count"},
		{"runs.failed", d.sum("adasim_runs_total", map[string]string{"outcome": "failed"}) + d.sum("adasim_runs_total", map[string]string{"outcome": "panic"}), "count"},
		{"core.step_ns", rep.stepNs, "ns"},
		{"core.steps_per_run", rep.stepsPerRun, "count"},
		{"core.reset_us", rep.resetUs, "us"},
		{"experiments.fingerprint_us", rep.fingerprintUs, "us"},
		{"experiments.runner_do_ms", rep.runnerDoMs, "ms"},
		{"daemon.ready_ms", readyMs, "ms"},
		{"report.latency_p50_ms", median(untraced.reportLat), "ms"},
		{"trace.overhead_ms", tracedP50 - median(untraced.jobLat), "ms"},
		{"trace.path_coverage", coverage, "ratio"},
	}
}

// writeJSON writes v indented to path.
func writeJSON(path string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
