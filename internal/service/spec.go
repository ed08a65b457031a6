// Package service turns the batch campaign engine into a serving layer:
// a serializable job model with canonical content hashes, a dispatcher
// with a bounded FIFO queue and a run pool of long-lived platforms, a
// content-addressed per-run result cache, and an HTTP/JSON
// API served by cmd/adasimd.
//
// Determinism contract: a job's results are fully determined by its
// normalized spec. Run seeds derive from (BaseSeed, RunKey, Salt) exactly
// as experiments.RunMatrix derives them, each run executes on a platform
// whose Reset guarantees bit-identical trajectories, and results are
// ordered by the canonical run-key enumeration — so the same spec yields
// byte-identical result encodings regardless of worker count, submission
// order, or whether individual runs were served from the cache.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/fi"
	"adasim/internal/scenario"
)

// JobSpec is a serializable campaign specification: the full cross
// product scenarios x gaps x reps of closed-loop runs under one fault
// parameterisation and one intervention set. The zero value of every
// optional field means "paper default"; Normalized resolves them.
type JobSpec struct {
	// Scenarios to run; empty means all six (S1..S6).
	Scenarios []scenario.ID `json:"scenarios,omitempty"`
	// Gaps are the initial bumper-to-bumper distances (m); empty means
	// the paper's {60, 230}.
	Gaps []float64 `json:"gaps,omitempty"`
	// Reps is the number of repetitions per (scenario, gap); zero means 1.
	Reps int `json:"reps,omitempty"`
	// Steps caps each run's length; zero means core.DefaultSteps.
	Steps int `json:"steps,omitempty"`
	// BaseSeed decorrelates whole campaigns; per-run seeds derive from
	// it deterministically (experiments.SeedFor).
	BaseSeed int64 `json:"base_seed,omitempty"`
	// Salt further decorrelates campaigns sharing a base seed, matching
	// the salt argument of experiments.RunMatrix.
	Salt int64 `json:"salt,omitempty"`
	// Fault configures the fault-injection engine; the zero value runs
	// fault-free.
	Fault fi.Params `json:"fault"`
	// Interventions selects the safety interventions. ML is rejected:
	// trained weights do not travel in a job spec.
	Interventions core.InterventionSet `json:"interventions"`
}

// MaxRunsPerJob bounds a single job's run count so one request cannot
// monopolise the service.
const MaxRunsPerJob = 100000

// MaxStepsPerRun bounds a single run's length (100x the paper default):
// without it one unauthenticated job could pin every pooled Runner for an
// arbitrarily long time, and the FIFO scheduler has no preemption.
const MaxStepsPerRun = 1000000

// Normalized returns the canonical form of the spec: defaults resolved,
// scenario and gap lists sorted and deduplicated. Two specs describing
// the same campaign normalize identically, so their hashes collide on
// purpose.
func (s JobSpec) Normalized() JobSpec {
	n := s
	if len(n.Scenarios) == 0 {
		n.Scenarios = scenario.All()
	} else {
		n.Scenarios = append([]scenario.ID(nil), n.Scenarios...)
		sort.Slice(n.Scenarios, func(i, j int) bool { return n.Scenarios[i] < n.Scenarios[j] })
		n.Scenarios = dedupeIDs(n.Scenarios)
	}
	if len(n.Gaps) == 0 {
		n.Gaps = scenario.InitialGaps()
	} else {
		n.Gaps = append([]float64(nil), n.Gaps...)
		sort.Float64s(n.Gaps)
		n.Gaps = dedupeFloats(n.Gaps)
	}
	if n.Reps == 0 {
		n.Reps = 1
	}
	if n.Steps == 0 {
		n.Steps = core.DefaultSteps
	}
	return n
}

func dedupeIDs(ids []scenario.ID) []scenario.ID {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

func dedupeFloats(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Validate rejects unusable specs. It expects the normalized form.
func (s JobSpec) Validate() error {
	for _, id := range s.Scenarios {
		if id < scenario.S1 || id > scenario.S6 {
			return fmt.Errorf("service: unknown scenario id %d", int(id))
		}
	}
	for _, gap := range s.Gaps {
		if !(gap > 0) || math.IsInf(gap, 0) {
			return fmt.Errorf("service: initial gap must be positive and finite, got %v", gap)
		}
	}
	// Bound every factor before multiplying: a huge Reps (or gap list)
	// must not overflow the run-count product past the limit check.
	if s.Reps < 1 || s.Reps > MaxRunsPerJob {
		return fmt.Errorf("service: reps must be in [1, %d], got %d", MaxRunsPerJob, s.Reps)
	}
	if len(s.Gaps) > MaxRunsPerJob {
		return fmt.Errorf("service: too many gaps (%d), max %d", len(s.Gaps), MaxRunsPerJob)
	}
	if s.Steps < 1 || s.Steps > MaxStepsPerRun {
		return fmt.Errorf("service: steps must be in [1, %d], got %d", MaxStepsPerRun, s.Steps)
	}
	if n := int64(len(s.Scenarios)) * int64(len(s.Gaps)) * int64(s.Reps); n > MaxRunsPerJob {
		return fmt.Errorf("service: job expands to %d runs, max %d", n, MaxRunsPerJob)
	}
	if s.Fault.Target < fi.TargetNone || s.Fault.Target > fi.TargetMixed {
		return fmt.Errorf("service: unsupported fault target %d", int(s.Fault.Target))
	}
	if err := s.Fault.Validate(); err != nil {
		return err
	}
	for _, f := range []float64{s.Fault.CurvatureOffset, s.Fault.CurvatureDuration, s.Fault.CurvatureRamp} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Errorf("service: fault parameters must be finite")
		}
	}
	if s.Interventions.ML || s.Interventions.MLNet != nil {
		return fmt.Errorf("service: the ML intervention is not supported over the service API (trained weights are not part of a job spec)")
	}
	return nil
}

// Hash returns the canonical content hash of the normalized spec: the
// SHA-256 of its stable JSON encoding. It expects the normalized form.
func (s JobSpec) Hash() (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("service: hashing spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// DecodeSpec strictly parses a JSON job spec, rejecting unknown fields —
// the submission endpoint, the CLI's -spec path, and the fuzzer all use
// it, so a typo fails identically everywhere.
func DecodeSpec(b []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// Plan expands the normalized spec into its runs in the canonical
// campaign order (scenario-major, then gap, then rep — the same order
// experiments.RunMatrix uses). Cache keys are the canonical run
// fingerprints (experiments.RunFingerprint) — everything that determines
// a run's outcome and nothing else — so two jobs whose specs differ
// (say, in rep count) still share cache entries for the runs they have
// in common, and exploration probes share the same keyspace.
func (s JobSpec) Plan() ([]experiments.RunRequest, error) {
	keys := experiments.Keys(s.Scenarios, s.Gaps, s.Reps)
	plan := make([]experiments.RunRequest, len(keys))
	var fp experiments.FingerprintScratch
	for i, key := range keys {
		opts := core.Options{
			Scenario:      scenario.DefaultSpec(key.Scenario, key.Gap),
			Fault:         s.Fault,
			Interventions: s.Interventions,
			Seed:          experiments.SeedFor(s.BaseSeed, key, s.Salt),
			Steps:         s.Steps,
		}
		cacheKey, err := fp.Fingerprint(opts)
		if err != nil {
			return nil, fmt.Errorf("service: fingerprinting run %v: %w", key, err)
		}
		plan[i] = experiments.RunRequest{Key: key, Opts: opts, CacheKey: cacheKey}
	}
	return plan, nil
}
