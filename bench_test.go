// Package adasim's root benchmarks time the hot paths and the
// in-process service (the simulation step, campaigns, service, report
// and mixed workloads), and report the ML row of Table VI and the
// ablations of the design choices called out in DESIGN.md at reduced
// scale (one repetition, shortened runs), which nothing else computes.
// The paper's tables and figures come from cmd/tables, whose bytes the
// report goldens pin.
package adasim

import (
	"context"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"adasim/internal/aebs"
	"adasim/internal/core"
	"adasim/internal/driver"
	"adasim/internal/experiments"
	"adasim/internal/explore"
	"adasim/internal/fi"
	"adasim/internal/metrics"
	"adasim/internal/mlmit"
	"adasim/internal/nn"
	"adasim/internal/panda"
	"adasim/internal/perception"
	"adasim/internal/report"
	"adasim/internal/safety"
	"adasim/internal/scenario"
	"adasim/internal/service"
	"adasim/internal/vehicle"
	"adasim/internal/worker"
)

// benchCfg is the reduced campaign used by the ML-row and ablation benches.
func benchCfg() experiments.Config {
	return experiments.Config{Reps: 1, Steps: 3000, BaseSeed: 1}
}

// BenchmarkSimulationStep measures one closed-loop control cycle
// (perception + injection + control + AEBS + driver + arbitration +
// physics + monitors).
func BenchmarkSimulationStep(b *testing.B) {
	newPlatform := func(seed int64) *core.Platform {
		p, err := core.NewPlatform(core.Options{
			Scenario:              scenario.DefaultSpec(scenario.S1, 60),
			Fault:                 fi.DefaultParams(fi.TargetMixed),
			Interventions:         core.InterventionSet{Driver: true, SafetyCheck: true, AEB: aebs.SourceIndependent},
			Seed:                  seed,
			Steps:                 1 << 30, // never self-terminate on step count
			ContinueAfterAccident: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	p := newPlatform(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Finished() { // reached the end of the map: fresh platform
			b.StopTimer()
			p = newPlatform(int64(i))
			b.StartTimer()
		}
		p.Step()
	}
}

// BenchmarkClosedLoopRun measures a full (shortened) end-to-end run.
func BenchmarkClosedLoopRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := core.Run(core.Options{
			Scenario: scenario.DefaultSpec(scenario.S1, 60),
			Seed:     int64(i),
			Steps:    3000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestClosedLoopRunAllocBudget ratchets the per-run allocation count on
// the warm path (a pooled Runner resetting its platform between runs —
// how campaigns, explorations, and the service all execute). The budget
// only ever moves down: if a change pushes a warm run back over it, the
// allocation crept into a loop that executes millions of times per
// campaign.
func TestClosedLoopRunAllocBudget(t *testing.T) {
	const budget = 24
	var r experiments.Runner
	opts := func(seed int64) core.Options {
		return core.Options{
			Scenario:      scenario.DefaultSpec(scenario.S1, 60),
			Fault:         fi.DefaultParams(fi.TargetMixed),
			Interventions: core.InterventionSet{Driver: true, SafetyCheck: true},
			Seed:          seed,
			Steps:         600,
		}
	}
	if _, err := r.Do(opts(1)); err != nil {
		t.Fatal(err)
	}
	seed := int64(2)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Do(opts(seed)); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	if allocs > budget {
		t.Errorf("warm closed-loop run allocs = %v, budget %d", allocs, budget)
	}
}

// TestServiceWarmJobAllocBudget ratchets the service's own per-run
// overhead: a job whose every run is served from the in-memory result
// cache measures pure dispatcher + plan + cache-lookup cost, with the
// closed loop entirely out of the picture. Per-run fingerprinting goes
// through the reused scratch encoder, and an all-hit batch allocates no
// miss list and calls no executor (experiments.Resolve), so the warm
// path must stay tight; the budget only ever moves down.
func TestServiceWarmJobAllocBudget(t *testing.T) {
	const perRunBudget = 40 // observed ~7/run; was ~306 before the scratch/pool work
	d, err := service.NewDispatcher(service.Config{
		Workers: 1, QueueSize: 16, CacheEntries: 1 << 10, Uninstrumented: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := d.Drain(ctx); err != nil {
			t.Error(err)
		}
	}()
	spec := service.JobSpec{
		Scenarios:     []scenario.ID{scenario.S1},
		Gaps:          []float64{60},
		Reps:          16,
		Steps:         300,
		BaseSeed:      1,
		Fault:         fi.DefaultParams(fi.TargetMixed),
		Interventions: core.InterventionSet{Driver: true, SafetyCheck: true},
	}
	// The cold pass executes and caches every run.
	view, err := d.SubmitTask(service.JobKind, spec, "")
	if err != nil {
		t.Fatal(err)
	}
	<-d.TaskDone(view.ID)
	view, _ = d.Task(view.ID)
	if view.Status != service.StatusDone {
		t.Fatalf("cold job: %s (%s)", view.Status, view.Error)
	}
	runs := view.TotalRuns
	allocs := testing.AllocsPerRun(10, func() {
		v, err := d.SubmitTask(service.JobKind, spec, "")
		if err != nil {
			t.Fatal(err)
		}
		<-d.TaskDone(v.ID)
	})
	t.Logf("warm allocs = %.1f/run (%v/job over %d runs)", allocs/float64(runs), allocs, runs)
	if perRun := allocs / float64(runs); perRun > perRunBudget {
		t.Errorf("warm service job allocs = %.1f/run (%v/job over %d runs), budget %d/run",
			perRun, allocs, runs, perRunBudget)
	}
}

var (
	benchNetOnce sync.Once
	benchNet     *nn.Network
	benchNetErr  error
)

// benchTrainedNet trains a small baseline once for the ML benches.
func benchTrainedNet() (*nn.Network, error) {
	benchNetOnce.Do(func() {
		tc := experiments.DefaultTrainingConfig()
		tc.Hidden = []int{16, 8}
		tc.Epochs = 2
		tc.Steps = 2000
		benchNet, benchNetErr = func() (*nn.Network, error) {
			net, _, err := experiments.TrainBaseline(tc)
			return net, err
		}()
	})
	return benchNet, benchNetErr
}

// BenchmarkTableVIML regenerates the ML-baseline row of Table VI
// (Observation 6).
func BenchmarkTableVIML(b *testing.B) {
	net, err := benchTrainedNet()
	if err != nil {
		b.Fatal(err)
	}
	row := core.InterventionSet{ML: true, MLNet: net}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := experiments.RunMatrix(benchCfg(), fi.DefaultParams(fi.TargetRelDistance), row, 9)
		if err != nil {
			b.Fatal(err)
		}
		agg := metrics.AggregateOutcomes(experiments.Outcomes(runs))
		b.ReportMetric(agg.A1Rate*100, "rd-ml-A1-%")
		b.ReportMetric(agg.A2Rate*100, "rd-ml-A2-%")
	}
}

// BenchmarkAblationAEBPriority compares the paper's priority hierarchy
// (AEB overrides the driver) against the inverted one, on the mixed
// attack where Observation 4's conflict shows up.
func BenchmarkAblationAEBPriority(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := core.InterventionSet{Driver: true, AEB: aebs.SourceIndependent}
		inverted := base
		inverted.DriverPriorityOverAEB = true
		for name, set := range map[string]core.InterventionSet{
			"aeb-priority": base, "driver-priority": inverted,
		} {
			runs, err := experiments.RunMatrix(benchCfg(), fi.DefaultParams(fi.TargetMixed), set, 11)
			if err != nil {
				b.Fatal(err)
			}
			agg := metrics.AggregateOutcomes(experiments.Outcomes(runs))
			b.ReportMetric(agg.Prevented*100, name+"-prevented-%")
		}
	}
}

// BenchmarkAblationSafetyClamp compares the ISO 22179 firmware bounds
// against a loosened deceleration clamp.
func BenchmarkAblationSafetyClamp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for name, decel := range map[string]float64{"iso": 3.5, "loose": 8.0} {
			limits := panda.DefaultLimits()
			limits.MaxDecel = decel
			cfg := benchCfg()
			cfg.Modify = func(o *core.Options) { o.Panda = &limits }
			runs, err := experiments.RunMatrix(cfg, fi.DefaultParams(fi.TargetRelDistance),
				core.InterventionSet{SafetyCheck: true}, 12)
			if err != nil {
				b.Fatal(err)
			}
			agg := metrics.AggregateOutcomes(experiments.Outcomes(runs))
			b.ReportMetric(agg.Prevented*100, name+"-prevented-%")
		}
	}
}

// BenchmarkAblationCUSUM sweeps the ML detector threshold tau.
func BenchmarkAblationCUSUM(b *testing.B) {
	net, err := benchTrainedNet()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tau := range []float64{1.0, 2.0, 4.0} {
			mcfg := mlmit.Config{Threshold: tau, Bias: 0.25}
			runs, err := experiments.RunMatrix(benchCfg(), fi.DefaultParams(fi.TargetRelDistance),
				core.InterventionSet{ML: true, MLNet: net, MLConfig: &mcfg}, 13)
			if err != nil {
				b.Fatal(err)
			}
			agg := metrics.AggregateOutcomes(experiments.Outcomes(runs))
			b.ReportMetric(agg.A1Rate*100, "tau-A1-%")
		}
	}
}

// BenchmarkCampaignThroughput measures a reduced fault-injection
// campaign end to end: scenarios x gaps x reps closed-loop runs through
// the worker pool, with the full intervention stack plus a small ML
// mitigation network. This is the bench that tracks campaign-scale
// run reuse and hot-loop allocation work across PRs.
func BenchmarkCampaignThroughput(b *testing.B) {
	// Untrained weights are perf-representative: the mitigator runs the
	// same inference per step regardless of what the network predicts.
	net, err := nn.NewNetwork(mlmit.FeatureDim, []int{16, 8}, mlmit.OutputDim, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Reps: 1, Steps: 600, BaseSeed: 1}
	iv := core.InterventionSet{
		Driver: true, SafetyCheck: true, AEB: aebs.SourceIndependent,
		ML: true, MLNet: net, Monitor: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := experiments.RunMatrix(cfg, fi.DefaultParams(fi.TargetMixed), iv, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(runs)), "runs/op")
	}
}

// BenchmarkServiceThroughput measures the campaign service end to end at
// saturation: jobs flow through the dispatcher's bounded queue and
// sharded worker pool (long-lived platforms, Reset per run). The "cold"
// variant gives every job a distinct base seed so nothing caches; the
// "warm" variant resubmits one spec so every run is served from the
// content-addressed result cache. The cold/warm ns/op gap is the cache's
// whole value proposition.
//
// The warm variant first fills the dispatcher to its finished-record cap
// (untimed), as a long-lived daemon is: every timed job then retires one
// record and evicts another, so ns/op prices that steady state rather
// than depending on how many records b.N left behind.
func BenchmarkServiceThroughput(b *testing.B) {
	const maxJobRecords = 4096
	spec := service.JobSpec{
		Reps:          1,
		Steps:         600,
		Fault:         fi.DefaultParams(fi.TargetMixed),
		Interventions: core.InterventionSet{Driver: true, SafetyCheck: true, AEB: aebs.SourceIndependent},
	}
	runJob := func(b *testing.B, d *service.Dispatcher, spec service.JobSpec) service.TaskView {
		view, err := d.SubmitTask(service.JobKind, spec, "")
		if err != nil {
			b.Fatal(err)
		}
		<-d.TaskDone(view.ID)
		view, _ = d.Task(view.ID)
		if view.Status != service.StatusDone {
			b.Fatalf("job %s: %s (%s)", view.ID, view.Status, view.Error)
		}
		return view
	}
	runBench := func(b *testing.B, prefill int, specFor func(i int) service.JobSpec) {
		d, err := service.NewDispatcher(service.Config{QueueSize: 256, CacheEntries: 1 << 16, MaxJobRecords: maxJobRecords})
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := d.Drain(ctx); err != nil {
				b.Error(err)
			}
		}()
		for i := 0; i < prefill; i++ {
			runJob(b, d, specFor(i))
		}
		b.ResetTimer()
		var runs, hits int
		for i := 0; i < b.N; i++ {
			view := runJob(b, d, specFor(i))
			runs += view.TotalRuns
			hits += view.CacheHits
		}
		b.ReportMetric(float64(runs)/float64(b.N), "runs/job")
		b.ReportMetric(float64(hits)/float64(b.N), "cachehits/job")
	}
	b.Run("cold", func(b *testing.B) {
		runBench(b, 0, func(i int) service.JobSpec {
			s := spec
			s.BaseSeed = int64(i + 1) // a fresh campaign every job
			return s
		})
	})
	b.Run("warm", func(b *testing.B) {
		warm := spec
		warm.BaseSeed = 1
		runBench(b, maxJobRecords, func(i int) service.JobSpec { return warm })
	})
}

// BenchmarkReportThroughput measures the report subsystem end to end
// through the campaign service. The "cold" variant computes a reduced
// Table VI report from scratch on the worker shards; the "warm" variant
// first covers the table's exact run grid with campaign jobs, so the
// report is served almost entirely (>= 90%, asserted) from the shared
// content-addressed cache — the paper regenerated as cache reads.
func BenchmarkReportThroughput(b *testing.B) {
	spec := report.Spec{Artifacts: []string{report.Table6}, Reps: 1, Steps: 600, BaseSeed: 1}
	newDispatcher := func(b *testing.B) *service.Dispatcher {
		d, err := service.NewDispatcher(service.Config{QueueSize: 256, CacheEntries: 1 << 16})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := d.Drain(ctx); err != nil {
				b.Error(err)
			}
		})
		return d
	}
	runReport := func(b *testing.B, d *service.Dispatcher, spec report.Spec) service.TaskView {
		view, err := d.SubmitTask(service.ReportKind, service.ReportTask{Spec: spec}, "")
		if err != nil {
			b.Fatal(err)
		}
		<-d.TaskDone(view.ID)
		view, _ = d.Task(view.ID)
		if view.Status != service.StatusDone {
			b.Fatalf("report %s: %s (%s)", view.ID, view.Status, view.Error)
		}
		return view
	}
	b.Run("cold", func(b *testing.B) {
		d := newDispatcher(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := spec
			s.BaseSeed = int64(i + 1) // a fresh report every op
			view := runReport(b, d, s)
			b.ReportMetric(float64(view.CompletedRuns), "runs/op")
		}
	})
	b.Run("warm", func(b *testing.B) {
		d := newDispatcher(b)
		// Cover the report's exact run grid with campaign jobs first.
		for _, c := range experiments.TableVICampaigns(experiments.TableVIRows(nil)) {
			view, err := d.SubmitTask(service.JobKind, service.JobSpec{
				Reps: 1, Steps: 600, BaseSeed: 1, Salt: c.Salt,
				Fault: c.Fault, Interventions: c.Interventions,
			}, "")
			if err != nil {
				b.Fatal(err)
			}
			<-d.TaskDone(view.ID)
		}
		b.ResetTimer()
		var runs, hits int
		for i := 0; i < b.N; i++ {
			view := runReport(b, d, spec)
			runs += view.CompletedRuns
			hits += view.CacheHits
		}
		if float64(hits) < 0.9*float64(runs) {
			b.Fatalf("warm reports served %d of %d runs from cache, want >= 90%%", hits, runs)
		}
		b.ReportMetric(float64(runs)/float64(b.N), "runs/op")
		b.ReportMetric(float64(hits)/float64(b.N), "cachehits/op")
	})
}

// BenchmarkMixedWorkloadThroughput measures the unified task runtime
// under a mixed workload: per op, one bulk report is already running,
// a second bulk report and four interactive jobs are queued behind it,
// and each priority class's lane must dispatch its tasks in submission
// order (asserted from the timeline). The run-level priority between
// the lanes is pinned on one Runner by the service tests
// (TestInteractiveOvertakesBulk and its neighbours). Everything runs
// cold (distinct seeds per op), so ns/op tracks real mixed-queue
// throughput.
func BenchmarkMixedWorkloadThroughput(b *testing.B) {
	benchMixedWorkload(b, service.Config{QueueSize: 256, CacheEntries: 1 << 16})
}

// BenchmarkInstrumentedMixedWorkload is the observability-cost bench: the
// identical mixed workload with the full metrics and timeline layer on
// ("instrumented") and with the gated event counters and latency
// histograms compiled out to nil handles ("baseline", Uninstrumented).
// The two ns/op must stay within a few percent of each other — the
// observability layer's whole design constraint.
//
// The "overhead" sub-bench is the one the bench-check gate reads: it
// interleaves baseline and instrumented ops within a single timing
// loop, so slow drift of the host (thermal state, background load)
// lands on both sides instead of biasing whichever variant ran second
// — sequential A/B runs of this workload have shown phantom ~30%
// deltas from exactly that. It reports the paired difference as
// overhead-%.
func BenchmarkInstrumentedMixedWorkload(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		benchMixedWorkload(b, service.Config{
			QueueSize: 256, CacheEntries: 1 << 16, Uninstrumented: true,
		})
	})
	b.Run("instrumented", func(b *testing.B) {
		benchMixedWorkload(b, service.Config{QueueSize: 256, CacheEntries: 1 << 16})
	})
	b.Run("overhead", func(b *testing.B) {
		newDispatcher := func(uninstrumented bool) *service.Dispatcher {
			d, err := service.NewDispatcher(service.Config{
				QueueSize: 256, CacheEntries: 1 << 16, Uninstrumented: uninstrumented,
			})
			if err != nil {
				b.Fatal(err)
			}
			return d
		}
		drain := func(d *service.Dispatcher) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := d.Drain(ctx); err != nil {
				b.Error(err)
			}
		}
		base := newDispatcher(true)
		defer drain(base)
		instr := newDispatcher(false)
		defer drain(instr)

		// Warm both dispatchers once so first-op setup (pool spin-up,
		// route tables) stays out of the measurement.
		mixedWorkloadOp(b, base, 1_000_000)
		mixedWorkloadOp(b, instr, 2_000_000)

		var tBase, tInstr time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Disjoint seed spaces keep every op cold on both sides.
			start := time.Now()
			mixedWorkloadOp(b, base, int64(i)*200+1)
			tBase += time.Since(start)
			start = time.Now()
			mixedWorkloadOp(b, instr, int64(i)*200+101)
			tInstr += time.Since(start)
		}
		b.StopTimer()
		n := float64(b.N)
		b.ReportMetric(tBase.Seconds()*1e9/n, "baseline-ns/op")
		b.ReportMetric(tInstr.Seconds()*1e9/n, "instrumented-ns/op")
		b.ReportMetric((tInstr.Seconds()-tBase.Seconds())/tBase.Seconds()*100, "overhead-%")
	})
}

// benchMixedWorkload drives the mixed-workload op loop shared by the
// throughput and instrumentation-cost benches: per op, one bulk report
// is already running, a second bulk report and four interactive jobs
// queue behind it, and each lane must dispatch in submission order
// (asserted). Cold seeds per op, so ns/op tracks real mixed-queue
// throughput.
func benchMixedWorkload(b *testing.B, cfg service.Config) {
	d, err := service.NewDispatcher(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := d.Drain(ctx); err != nil {
			b.Error(err)
		}
	}()
	benchMixedWorkloadOn(b, d)
}

// BenchmarkMixedWorkloadMultiNode is the distributed-execution variant
// of the mixed-workload bench: the identical op loop, but the
// coordinator has two in-process worker nodes attached over loopback
// HTTP, so every wire-eligible run is leased out, executed remotely,
// and written back through the shared cache. Comparing its ns/op
// against BenchmarkMixedWorkloadThroughput prices the lease protocol +
// wire codec + HTTP hop per batch.
func BenchmarkMixedWorkloadMultiNode(b *testing.B) {
	d, err := service.NewDispatcher(service.Config{
		QueueSize: 256, CacheEntries: 1 << 16,
		WorkerBatch: 4, LeaseTTL: 5 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := d.Drain(ctx); err != nil {
			b.Error(err)
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &http.Server{Handler: service.NewServer(d)}
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := worker.New(worker.Config{
			Coordinator: "http://" + ln.Addr().String(),
			Name:        "bench-node",
			Parallelism: 2,
			LeaseWait:   50 * time.Millisecond,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
		for w.ID() == "" {
			time.Sleep(time.Millisecond)
		}
	}
	defer wg.Wait()
	defer cancel()

	benchMixedWorkloadOn(b, d)
}

// benchMixedWorkloadOn is the op loop shared by the single-node,
// instrumented, and multi-node mixed-workload benches.
func benchMixedWorkloadOn(b *testing.B, d *service.Dispatcher) {
	b.ResetTimer()
	var runs int
	for i := 0; i < b.N; i++ {
		runs += mixedWorkloadOp(b, d, int64(i)*100+1)
	}
	b.ReportMetric(float64(runs)/float64(b.N), "runs/op")
}

// mixedWorkloadOp is one mixed-workload op: one bulk report already
// running, a second bulk report and four interactive jobs queued
// behind it, each lane dispatching its tasks in submission order
// (asserted from the timeline). Returns the completed-run count.
func mixedWorkloadOp(b *testing.B, d *service.Dispatcher, base int64) int {
	jobSpec := func(seed int64) service.JobSpec {
		return service.JobSpec{
			Scenarios:     []scenario.ID{scenario.S1},
			Gaps:          []float64{60},
			Reps:          1,
			Steps:         600,
			BaseSeed:      seed,
			Fault:         fi.DefaultParams(fi.TargetMixed),
			Interventions: core.InterventionSet{Driver: true, SafetyCheck: true},
		}
	}
	var runs int
	rspec := report.Spec{Artifacts: []string{report.Table4}, Reps: 1, Steps: 600, BaseSeed: base}
	running, err := d.SubmitTask(service.ReportKind, service.ReportTask{Spec: rspec}, "")
	if err != nil {
		b.Fatal(err)
	}
	rspec.BaseSeed = base + 1
	queued, err := d.SubmitTask(service.ReportKind, service.ReportTask{Spec: rspec}, "")
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]service.TaskView, 4)
	for j := range jobs {
		if jobs[j], err = d.SubmitTask(service.JobKind, jobSpec(base+int64(j)+2), ""); err != nil {
			b.Fatal(err)
		}
	}
	for _, id := range []string{running.ID, queued.ID, jobs[0].ID, jobs[1].ID, jobs[2].ID, jobs[3].ID} {
		<-d.TaskDone(id)
		view, _ := d.Task(id)
		if view.Status != service.StatusDone {
			b.Fatalf("task %s: %s (%s)", id, view.Status, view.Error)
		}
		runs += view.CompletedRuns
	}
	// Each lane dispatches its class FIFO, one task at a time: a task's
	// started event follows the done event of the task before it in its
	// lane. Both are stamped under the dispatcher lock, so the order is
	// exact; finish times across lanes are not ordered (both lanes take
	// Runners while the interactive one is between tasks).
	at := func(id, event string) time.Time {
		events, _ := d.TaskEvents(id)
		for _, ev := range events {
			if ev.Event == event {
				return ev.TS
			}
		}
		b.Fatalf("task %s has no %s event", id, event)
		return time.Time{}
	}
	for _, lane := range [][]service.TaskView{{running, queued}, jobs} {
		for i := 1; i < len(lane); i++ {
			if prev, next := lane[i-1].ID, lane[i].ID; at(next, service.EventStarted).Before(at(prev, service.EventDone)) {
				b.Fatalf("task %s started before %s, queued ahead of it in its lane, was done", next, prev)
			}
		}
	}
	return runs
}

// BenchmarkExploreBoundarySearch measures one hazard-boundary search
// over the generated cut-in family end to end: bracketing plus bisection
// probes (shortened runs) executed through a long-lived platform pool,
// uncached so every probe is a real closed-loop run. probes/sec is the
// exploration-throughput tracker across PRs.
func BenchmarkExploreBoundarySearch(b *testing.B) {
	eng := explore.New(experiments.NewPool(0), nil)
	// Fault-free with only driver reactions: the frontier sits mid-range
	// (~23 m), so every op pays the full bracket-plus-bisection cost; an
	// 8 s horizon is enough to classify the tightest merge.
	spec := explore.Spec{
		Family:        "cut-in",
		Steps:         800,
		Interventions: core.InterventionSet{Driver: true},
		Fixed:         map[string]float64{"cutin_gap": 25},
		Boundary: &explore.BoundarySpec{
			Axis: "trigger_gap", Min: 5, Max: 60, Tolerance: 1,
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Boundary == nil {
			b.Fatal("no boundary result")
		}
	}
	probes := float64(eng.Tally.Runs())
	b.ReportMetric(probes/float64(b.N), "probes/op")
	b.ReportMetric(probes/b.Elapsed().Seconds(), "probes/sec")
}

// BenchmarkPerception measures the perception sensor alone.
func BenchmarkPerception(b *testing.B) {
	p, err := core.NewPlatform(core.Options{
		Scenario: scenario.DefaultSpec(scenario.S1, 60),
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := perception.New(perception.DefaultConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	w := p.World()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Perceive(w)
	}
}

// BenchmarkLSTMPredict measures one forward pass of the paper-sized
// (128/64) baseline network over a 20-step window.
func BenchmarkLSTMPredict(b *testing.B) {
	net, err := nn.NewNetwork(mlmit.FeatureDim, []int{128, 64}, mlmit.OutputDim, 1)
	if err != nil {
		b.Fatal(err)
	}
	seq := make([][]float64, mlmit.HistorySteps)
	for i := range seq {
		seq[i] = make([]float64, mlmit.FeatureDim)
		seq[i][0] = float64(i) / 20
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Predict(seq)
	}
}

// benchSeq32 builds the float32 twin of the BenchmarkLSTMPredict window.
func benchSeq32() [][]float32 {
	seq := make([][]float32, mlmit.HistorySteps)
	for i := range seq {
		seq[i] = make([]float32, mlmit.FeatureDim)
		seq[i][0] = float32(i) / 20
	}
	return seq
}

// BenchmarkLSTMInfer32 measures the single-sequence float32 path (a
// batch of one through the batched kernels) on the same network and
// window as BenchmarkLSTMPredict — the per-cycle cost of the ML
// mitigation baseline in the closed loop when it runs alone.
func BenchmarkLSTMInfer32(b *testing.B) {
	net, err := nn.NewNetwork(mlmit.FeatureDim, []int{128, 64}, mlmit.OutputDim, 1)
	if err != nil {
		b.Fatal(err)
	}
	sc := net.NewInferScratch32(1)
	seq := benchSeq32()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.PredictInto32(seq, sc)
	}
}

// BenchmarkLSTMInferBatched measures the batched float32 GEMM path
// fusing 8 concurrent sequences. One op is a whole batch; µs/seq
// reports the per-sequence cost for direct comparison with
// BenchmarkLSTMInfer32.
func BenchmarkLSTMInferBatched(b *testing.B) {
	const batch = 8
	net, err := nn.NewNetwork(mlmit.FeatureDim, []int{128, 64}, mlmit.OutputDim, 1)
	if err != nil {
		b.Fatal(err)
	}
	sc := net.NewInferScratch32(batch)
	seqs := make([][][]float32, batch)
	for i := range seqs {
		seqs[i] = benchSeq32()
		seqs[i][0][1] = float32(i) // distinct sequences
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		_ = net.PredictBatchInto(seqs, sc)
	}
	elapsed := time.Since(start)
	b.ReportMetric(elapsed.Seconds()*1e6/float64(b.N*batch), "µs/seq")
}

// stepAllocPlatform builds a platform with the full intervention stack
// (including ML mitigation) for the steady-state allocation checks.
func stepAllocPlatform(t *testing.T) *core.Platform {
	t.Helper()
	net, err := nn.NewNetwork(mlmit.FeatureDim, []int{16, 8}, mlmit.OutputDim, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Options{
		Scenario: scenario.DefaultSpec(scenario.S1, 60),
		Fault:    fi.DefaultParams(fi.TargetMixed),
		Interventions: core.InterventionSet{
			Driver: true, SafetyCheck: true, AEB: aebs.SourceIndependent,
			Monitor: true, ML: true, MLNet: net,
		},
		Seed:                  1,
		Steps:                 1 << 30,
		ContinueAfterAccident: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSimulationStepZeroAllocs asserts the tentpole invariant: one
// closed-loop control cycle performs zero heap allocations in steady
// state, even with every intervention (driver, checker, AEBS, runtime
// monitor, ML mitigation) engaged. Platform construction is excluded.
func TestSimulationStepZeroAllocs(t *testing.T) {
	p := stepAllocPlatform(t)
	for i := 0; i < 500; i++ { // fill latency ring, ML history, monitor windows
		p.Step()
	}
	if p.Finished() {
		t.Fatal("platform finished during warm-up")
	}
	if allocs := testing.AllocsPerRun(2000, p.Step); allocs != 0 {
		t.Errorf("Platform.Step allocs/op = %v, want 0", allocs)
	}
}

// BenchmarkArbitration measures the safety arbiter with the firmware
// checker attached.
func BenchmarkArbitration(b *testing.B) {
	checker, err := panda.New(panda.DefaultLimits())
	if err != nil {
		b.Fatal(err)
	}
	arb := safety.New(safety.Config{AEBOverridesDriver: true, MaxBrake: 9.8, Checker: checker})
	in := safety.Inputs{
		ADAS:   vehicle.Command{Accel: -5, Curvature: 0.01},
		Driver: driver.Intervention{BrakeActive: true, BrakeAccel: -6, SteerActive: true, SteerCurvature: -0.02},
		AEB:    aebs.Decision{Phase: aebs.PhaseBrake95, BrakeFraction: 0.95},
		DT:     0.01,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = arb.Arbitrate(in)
	}
}

// BenchmarkJournalRecovery measures crash recovery end to end: each
// iteration boots a dispatcher on a journal directory holding live
// (never finalized) submissions whose runs are already in the on-disk
// result cache — the post-crash fast path — and times replay plus
// re-execution until every recovered task is done.
func BenchmarkJournalRecovery(b *testing.B) {
	const tasks = 16
	specFor := func(i int) service.JobSpec {
		return service.JobSpec{
			Reps:          1,
			Steps:         600,
			BaseSeed:      int64(i + 1),
			Fault:         fi.DefaultParams(fi.TargetMixed),
			Interventions: core.InterventionSet{Driver: true, SafetyCheck: true, AEB: aebs.SourceIndependent},
		}
	}
	// The occupier pins the single-task scheduler while the journaled
	// workload is submitted: against a cold cache its first runs take
	// far longer than the submit loop, so no other task can start (let
	// alone finalize) before Halt freezes the journal.
	occupier := service.JobSpec{
		Reps:          64,
		Steps:         2000,
		BaseSeed:      1000,
		Fault:         fi.DefaultParams(fi.TargetMixed),
		Interventions: core.InterventionSet{Driver: true, SafetyCheck: true, AEB: aebs.SourceIndependent},
	}
	cacheDir := b.TempDir()
	drain := func(d *service.Dispatcher, halt bool) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		var err error
		if halt {
			err = d.Halt(ctx)
		} else {
			err = d.Drain(ctx)
		}
		if err != nil {
			b.Fatal(err)
		}
	}

	// Warm the content-addressed disk cache with every run the
	// journaled workload will need.
	{
		d, err := service.NewDispatcher(service.Config{QueueSize: 64, CacheEntries: 1 << 10, CacheDir: cacheDir})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < tasks; i++ {
			view, err := d.SubmitTask(service.JobKind, specFor(i), "")
			if err != nil {
				b.Fatal(err)
			}
			<-d.TaskDone(view.ID)
		}
		view, err := d.SubmitTask(service.JobKind, occupier, "")
		if err != nil {
			b.Fatal(err)
		}
		<-d.TaskDone(view.ID)
		drain(d, false)
	}

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		// Seed a crash-frozen journal: occupy the scheduler, submit the
		// workload behind it, then halt before any terminal record lands
		// — every task stays live on disk. The seeding dispatcher must
		// NOT see the warm disk cache: against its cold in-memory cache
		// the occupier's runs keep the serial scheduler busy for the
		// whole (fsync-paced) submit loop, so nothing can finalize.
		journalDir := b.TempDir()
		cfg := service.Config{QueueSize: 64, CacheEntries: 1 << 10,
			CacheDir: cacheDir, JournalDir: journalDir}
		seedCfg := cfg
		seedCfg.CacheDir = ""
		seed, err := service.NewDispatcher(seedCfg)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]string, 0, tasks+1)
		occ, err := seed.SubmitTask(service.JobKind, occupier, "")
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, occ.ID)
		for i := 0; i < tasks; i++ {
			view, err := seed.SubmitTask(service.JobKind, specFor(i), "")
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, view.ID)
		}
		drain(seed, true)
		b.StartTimer()

		d, err := service.NewDispatcher(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range ids {
			ch := d.TaskDone(id)
			if ch == nil {
				b.Fatalf("task %s not recovered", id)
			}
			<-ch
		}
		b.StopTimer()
		rec := d.Recovery()
		if rec == nil || rec.RecoveredTasks != tasks+1 {
			b.Fatalf("recovery = %+v, want %d tasks", rec, tasks+1)
		}
		drain(d, false)
		b.StartTimer()
	}
	b.ReportMetric(tasks+1, "tasks/op")
}
