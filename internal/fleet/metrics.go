// The fleet's metric series. They are registered once, when the hub is
// built, with fixed label values, so the /metrics series set stays
// deterministic.
package fleet

import "adasim/internal/obs"

// remoteBatchBuckets is the batch round-trip histogram layout: a remote
// batch takes milliseconds to minutes.
var remoteBatchBuckets = []float64{0.005, 0.025, 0.1, 0.5, 1, 5, 30, 120}

// requeueReasons is the label vocabulary of the batch re-queue counter:
// lease expiry, worker-reported failure, worker departure, and local
// reclaim when no live worker remains.
var requeueReasons = []string{"expired", "failed", "deregistered", "reclaimed"}

// completionResults is the label vocabulary of the lease-completion
// counter.
var completionResults = []string{"ok", "failed", "duplicate"}

// workerMetrics holds the worker-fleet handles: the source of truth
// behind WorkerFleetStats (the /healthz and /v1/workers wire formats)
// and the adasim_workers_* / adasim_leases_* / adasim_remote_* series.
// The whole group is always-on: it records per batch (never per run on
// the hot path), and /healthz must stay truthful without /metrics.
type workerMetrics struct {
	connected     *obs.Gauge
	liveLeases    *obs.Gauge
	leasesGranted *obs.Counter
	leaseExpiries *obs.Counter
	requeued      map[string]*obs.Counter
	completions   map[string]*obs.Counter
	remoteRuns    *obs.Counter
	batchDur      *obs.Histogram
}

func newWorkerMetrics(reg *obs.Registry) *workerMetrics {
	m := &workerMetrics{
		connected:     reg.Gauge("adasim_workers_connected", "Remote workers currently registered."),
		liveLeases:    reg.Gauge("adasim_leases_live", "Run batches currently leased to remote workers."),
		leasesGranted: reg.Counter("adasim_leases_granted_total", "Run-batch leases granted to remote workers."),
		leaseExpiries: reg.Counter("adasim_lease_expiries_total", "Leases expired by the TTL janitor."),
		requeued:      make(map[string]*obs.Counter, len(requeueReasons)),
		completions:   make(map[string]*obs.Counter, len(completionResults)),
		remoteRuns: reg.Counter("adasim_remote_runs_total",
			"Runs completed by remote workers and written back through the result cache."),
		batchDur: reg.Histogram("adasim_remote_batch_seconds",
			"Remote batch round trip, lease grant to accepted completion.", remoteBatchBuckets),
	}
	for _, reason := range requeueReasons {
		m.requeued[reason] = reg.Counter("adasim_batches_requeued_total",
			"Leased batches returned to the pending queue, by reason.", obs.L("reason", reason))
	}
	for _, result := range completionResults {
		m.completions[result] = reg.Counter("adasim_lease_completions_total",
			"Worker completion reports, by result.", obs.L("result", result))
	}
	return m
}
