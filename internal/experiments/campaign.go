// Package experiments defines the paper's evaluation campaigns: one
// generator per table and figure in Section IV, built on the core
// closed-loop platform. Campaigns fan runs out over a worker pool and are
// deterministic for a fixed base seed.
package experiments

import (
	"math"
	"runtime"

	"adasim/internal/core"
	"adasim/internal/fi"
	"adasim/internal/metrics"
	"adasim/internal/scenario"
)

// Config are the campaign-level knobs shared by every experiment.
type Config struct {
	// Reps is the number of repetitions per configuration (10 in the
	// paper). Reduce for quick runs.
	Reps int
	// Steps caps each run's length; zero uses core.DefaultSteps.
	Steps int
	// Parallelism bounds concurrent runs; zero uses GOMAXPROCS.
	Parallelism int
	// BaseSeed decorrelates whole campaigns; runs derive their seeds
	// from it deterministically.
	BaseSeed int64
	// Modify, when non-nil, is applied to every run's options before
	// execution (used by sweeps and ablations).
	Modify func(*core.Options)
	// Executor, when non-nil, executes every campaign batch; the default
	// fans out over a fresh pool of Parallelism Runners per batch. The
	// report subsystem and the campaign service set it so tables and
	// figures run on their long-lived pool.
	Executor Executor
	// Cache, when non-nil, short-circuits runs whose fingerprint is
	// already stored and writes fresh outcomes back (see Resolve).
	// Trace-recording runs and runs that cannot be fingerprinted (ML)
	// always execute.
	Cache Cache
	// Tally, when non-nil, counts every run the campaign resolves (see
	// Resolve).
	Tally *Tally
}

// DefaultConfig returns the paper's campaign dimensions.
func DefaultConfig() Config {
	return Config{Reps: 10, BaseSeed: 1}
}

// normalized fills in defaults.
func (c Config) normalized() Config {
	if c.Reps == 0 {
		c.Reps = 10
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// RunKey identifies one run within a campaign. The json tags define the
// stable wire format used by campaign-service results.
type RunKey struct {
	Scenario scenario.ID `json:"scenario"`
	Gap      float64     `json:"gap"`
	Rep      int         `json:"rep"`
}

// SeedFor derives a deterministic per-run seed. The gap is hashed via its
// IEEE-754 bit pattern: truncating it to int64 collided fractional gaps
// (1.25 and 1.75 derived identical seeds). It is exported so the campaign
// service derives the exact seeds RunMatrix would, keeping cached and
// freshly executed runs interchangeable.
func SeedFor(base int64, key RunKey, salt int64) int64 {
	h := base
	h = h*1000003 + int64(key.Scenario)
	h = h*1000003 + int64(math.Float64bits(key.Gap))
	h = h*1000003 + int64(key.Rep)
	h = h*1000003 + salt
	if h < 0 {
		h = -h
	}
	return h
}

// RunOutcome pairs a run key with its outcome.
type RunOutcome struct {
	Key     RunKey          `json:"key"`
	Outcome metrics.Outcome `json:"outcome"`
	// Trace is the recorded per-step time series when the run's options
	// set RecordTrace (figure runs). It is excluded from the wire format
	// and never cached; cached runs always re-execute when a trace is
	// needed.
	Trace *metrics.Trace `json:"-"`
}

// RunMatrix executes scenarios x gaps x reps runs of the given fault and
// intervention set, applying cfg.Modify last. It returns outcomes in a
// deterministic order.
//
// Runs fan out over cfg.Parallelism workers; each worker owns one
// long-lived core.Platform that it resets per run, so the road map,
// perception/monitor buffers, and ML inference scratch are built once per
// worker instead of once per run. Every run is fully determined by its
// options and derived seed (core.Platform.Reset guarantees bit-identical
// trajectories versus a fresh platform), so results do not depend on
// which worker executes which run.
func RunMatrix(cfg Config, fault fi.Params, iv core.InterventionSet, salt int64) ([]RunOutcome, error) {
	cfg = cfg.normalized()
	keys := Keys(scenario.All(), scenario.InitialGaps(), cfg.Reps)
	reqs := make([]RunRequest, len(keys))
	for i, key := range keys {
		opts := core.Options{
			Scenario:      scenario.DefaultSpec(key.Scenario, key.Gap),
			Fault:         fault,
			Interventions: iv,
			Seed:          SeedFor(cfg.BaseSeed, key, salt),
			Steps:         cfg.Steps,
		}
		if cfg.Modify != nil {
			cfg.Modify(&opts)
		}
		reqs[i] = RunRequest{Key: key, Opts: opts}
	}
	return cfg.execute(reqs)
}

// execute resolves a planned batch through the config's executor and
// cache (see Resolve). Runs that record a trace, or that cannot be
// fingerprinted (ML), get no cache key and always execute.
func (c Config) execute(reqs []RunRequest) ([]RunOutcome, error) {
	exec := c.Executor
	if exec == nil {
		exec = NewPool(c.Parallelism)
	}
	var fp FingerprintScratch
	for i := range reqs {
		if !reqs[i].Opts.RecordTrace {
			reqs[i].CacheKey, _ = fp.Fingerprint(reqs[i].Opts) // "" on error
		}
	}
	return Resolve(exec, c.Cache, reqs, c.Tally)
}

// Outcomes strips run keys.
func Outcomes(rs []RunOutcome) []metrics.Outcome {
	outs := make([]metrics.Outcome, len(rs))
	for i, r := range rs {
		outs[i] = r.Outcome
	}
	return outs
}

// FilterByScenario returns the outcomes belonging to one scenario.
func FilterByScenario(rs []RunOutcome, id scenario.ID) []metrics.Outcome {
	var outs []metrics.Outcome
	for _, r := range rs {
		if r.Key.Scenario == id {
			outs = append(outs, r.Outcome)
		}
	}
	return outs
}
