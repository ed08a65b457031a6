// HTTP surface of the worker protocol (internal/fleet). Workers speak
// four POST verbs — register, lease (long-poll), heartbeat, complete —
// plus deregister for a graceful exit; operators read the fleet via GET
// /v1/workers. All bodies are JSON, decoded strictly: a worker and
// coordinator of incompatible versions must fail loudly, not
// half-understand each other.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"adasim/internal/fleet"
)

// decodeWorkerBody strictly decodes a worker-protocol request body.
func decodeWorkerBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxSpecBytes)
	b, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading worker request: %w", err))
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding worker request: %w", err))
		return false
	}
	return true
}

// writeWorkerError maps hub errors: an unknown worker gets 410 (its
// registration is gone — re-register), a draining hub 503 (back off and
// exit), anything else 400.
func writeWorkerError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fleet.ErrUnknownWorker):
		writeError(w, http.StatusGone, err)
	case errors.Is(err, fleet.ErrHubClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req fleet.WorkerRegisterRequest
	if !decodeWorkerBody(w, r, &req) {
		return
	}
	id, err := s.d.hub.Register(req.Name, req.Parallelism)
	if err != nil {
		writeWorkerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, fleet.WorkerRegisterResponse{
		WorkerID:  id,
		TTLMillis: s.d.cfg.LeaseTTL.Milliseconds(),
	})
}

func (s *Server) handleWorkerLease(w http.ResponseWriter, r *http.Request) {
	var req fleet.WorkerLeaseRequest
	if !decodeWorkerBody(w, r, &req) {
		return
	}
	if req.WorkerID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("worker_id required"))
		return
	}
	grant, err := s.d.hub.Lease(req.WorkerID, millisDuration(req.WaitMillis))
	if err != nil {
		writeWorkerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, grant)
}

func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req fleet.WorkerHeartbeatRequest
	if !decodeWorkerBody(w, r, &req) {
		return
	}
	live, err := s.d.hub.Heartbeat(req.WorkerID, req.LeaseID)
	if err != nil {
		writeWorkerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, fleet.WorkerHeartbeatResponse{Live: live})
}

func (s *Server) handleWorkerComplete(w http.ResponseWriter, r *http.Request) {
	var req fleet.WorkerCompleteRequest
	if !decodeWorkerBody(w, r, &req) {
		return
	}
	resp, err := s.d.hub.Complete(req.WorkerID, req.LeaseID, req.Outcomes, req.Error)
	if err != nil {
		writeWorkerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkerDeregister(w http.ResponseWriter, r *http.Request) {
	var req fleet.WorkerDeregisterRequest
	if !decodeWorkerBody(w, r, &req) {
		return
	}
	s.d.hub.Deregister(req.WorkerID)
	writeJSON(w, http.StatusOK, struct{}{})
}

// millisDuration converts a wire milliseconds value to a duration.
func millisDuration(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fleet.WorkersResponse{
		Fleet:   s.d.hub.FleetStats(),
		Workers: s.d.hub.Workers(),
	})
}
