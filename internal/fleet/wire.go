// The worker protocol's wire format: the JSON bodies of the four POST
// verbs workers speak — register, lease (long-poll), heartbeat,
// complete — plus deregister for a graceful exit, and the GET
// /v1/workers fleet view. Coordinators decode them strictly (see
// internal/service): a worker and coordinator of incompatible versions
// must fail loudly, not half-understand each other.
package fleet

import (
	"encoding/json"

	"adasim/internal/experiments"
	"adasim/internal/metrics"
)

// WorkerRegisterRequest announces a worker to the coordinator.
type WorkerRegisterRequest struct {
	// Name is a free-form operator label (hostname, pod name); the
	// coordinator assigns the identifying worker ID itself.
	Name string `json:"name,omitempty"`
	// Parallelism is the worker's local pool size, advertised for the
	// fleet view only — lease sizing is the coordinator's choice.
	Parallelism int `json:"parallelism,omitempty"`
}

// WorkerRegisterResponse carries the assigned worker ID and the lease
// TTL the worker must heartbeat within.
type WorkerRegisterResponse struct {
	WorkerID  string `json:"worker_id"`
	TTLMillis int64  `json:"lease_ttl_ms"`
}

// WorkerLeaseRequest long-polls for a batch. WaitMillis caps how long
// the coordinator may park the request; it is clamped to the lease TTL
// so a parked worker still refreshes its liveness every TTL.
type WorkerLeaseRequest struct {
	WorkerID   string `json:"worker_id"`
	WaitMillis int64  `json:"wait_ms,omitempty"`
}

// WireRun is one run of a leased batch: its campaign key (for worker
// logs) and its options in the canonical wire encoding (see
// experiments.MarshalOptions).
type WireRun struct {
	Key  experiments.RunKey `json:"key"`
	Opts json.RawMessage    `json:"opts"`
}

// WorkerLeaseResponse is a granted batch — or, with an empty LeaseID,
// "no work yet, poll again".
type WorkerLeaseResponse struct {
	LeaseID   string    `json:"lease_id,omitempty"`
	TTLMillis int64     `json:"ttl_ms,omitempty"`
	Runs      []WireRun `json:"runs,omitempty"`
}

// WorkerHeartbeatRequest extends a lease mid-batch.
type WorkerHeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id"`
}

// WorkerHeartbeatResponse reports whether the lease is still live. A
// false Live means it expired and was re-queued: the worker should
// abandon the batch — completing it anyway is harmless (duplicate), but
// wasted.
type WorkerHeartbeatResponse struct {
	Live bool `json:"live"`
}

// WorkerCompleteRequest settles a lease: the outcomes in lease-run
// order, or a worker-side error that re-queues the batch.
type WorkerCompleteRequest struct {
	WorkerID string            `json:"worker_id"`
	LeaseID  string            `json:"lease_id"`
	Outcomes []metrics.Outcome `json:"outcomes,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// WorkerCompleteResponse acknowledges a completion. Duplicate marks a
// completion for a lease the coordinator no longer holds (expired and
// re-executed, already completed, or drained) — idempotently accepted.
type WorkerCompleteResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// WorkerDeregisterRequest announces a graceful departure; the worker's
// live leases are re-queued immediately.
type WorkerDeregisterRequest struct {
	WorkerID string `json:"worker_id"`
}

// WorkersResponse is the GET /v1/workers fleet view.
type WorkersResponse struct {
	Fleet   WorkerFleetStats `json:"fleet"`
	Workers []WorkerInfo     `json:"workers"`
}
