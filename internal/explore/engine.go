package explore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/metrics"
	"adasim/internal/scenario"
	"adasim/internal/scengen"
)

// ProbeResult pairs one probe's requested parameters (sampled axes
// overlaid on the spec's fixed values; family defaults stay implicit)
// with its run outcome.
type ProbeResult struct {
	Params  Point           `json:"params"`
	Outcome metrics.Outcome `json:"outcome"`
}

// Accident reports whether the probe ended in an accident (the predicate
// the boundary search bisects on).
func (p ProbeResult) Accident() bool { return p.Outcome.Accident != metrics.AccidentNone }

// BoundaryResult is the outcome of a hazard-boundary search.
type BoundaryResult struct {
	Axis string `json:"axis"`
	// AccidentAtMin/Max classify the bracket endpoints.
	AccidentAtMin bool `json:"accident_at_min"`
	AccidentAtMax bool `json:"accident_at_max"`
	// Bracketed reports whether a frontier exists inside [min, max]
	// (the endpoint classes differ). When false, Lo/Hi/Frontier are the
	// untightened endpoints and midpoint.
	Bracketed bool `json:"bracketed"`
	// [Lo, Hi] is the final bracket: outcomes differ across it and
	// Hi-Lo <= tolerance (unless MaxProbes hit first).
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Frontier is the bracket midpoint: the hazard-boundary estimate.
	Frontier float64 `json:"frontier"`
	// Converged reports Hi-Lo <= tolerance (false when MaxProbes ended
	// the search early).
	Converged bool `json:"converged"`
	// Probes is the number of runs the search spent.
	Probes int `json:"probes"`
}

// Report is an exploration's result. It deliberately carries no job ID,
// timing, or cache counters, so the encoding is a pure function of the
// normalized spec: byte-identical across executor shard counts and cache
// warmth.
type Report struct {
	Family      string          `json:"family"`
	Method      string          `json:"method"`
	SpecHash    string          `json:"spec_hash"`
	TotalProbes int             `json:"total_probes"`
	Probes      []ProbeResult   `json:"probes"`
	Boundary    *BoundaryResult `json:"boundary,omitempty"`
}

// Engine runs explorations against an executor (experiments.Pool
// offline, the task runtime's run pool in the daemon) and an optional
// cache.
type Engine struct {
	exec  experiments.Executor
	cache experiments.Cache
	// Tally counts every probe the engine resolves, across calls (see
	// experiments.Resolve). New gives each engine its own; replace it
	// to observe or share the counts.
	Tally *experiments.Tally
}

// New builds an engine. cache may be nil.
func New(exec experiments.Executor, cache experiments.Cache) *Engine {
	return &Engine{exec: exec, cache: cache, Tally: new(experiments.Tally)}
}

// seedForPoint derives the probe's run seed from its fully resolved
// parameter content (family + sorted name/value pairs + base), not its
// schedule position — so the same probe costs one cache entry no matter
// which exploration, batch, or bisection step requests it. Callers pass
// the family-resolved map (scengen.Family.Resolve): spelling a default
// out explicitly must not change the seed.
func seedForPoint(base int64, family string, pt Point) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	h.Write([]byte(family))
	names := make([]string, 0, len(pt))
	for name := range pt {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(pt[name]))
		h.Write(buf[:])
	}
	return int64(h.Sum64() &^ (1 << 63))
}

// Run executes the exploration and returns its report. The spec is
// normalized and validated first, so callers may pass the raw wire form.
func (e *Engine) Run(spec Spec) (*Report, error) {
	n := spec.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	hash, err := n.Hash()
	if err != nil {
		return nil, err
	}
	fam, _ := scengen.ByName(n.Family)
	rep := &Report{Family: n.Family, Method: n.Method, SpecHash: hash}

	switch n.Method {
	case MethodBoundary:
		err = e.runBoundary(fam, n, rep)
	default:
		var pts []Point
		switch n.Method {
		case MethodGrid:
			pts = GridPoints(n.Axes)
		case MethodLHS:
			pts = LHSPoints(n.Axes, n.Samples, n.Seed)
		case MethodRandom:
			pts = RandomPoints(n.Axes, n.Samples, n.Seed)
		}
		rep.Probes, err = e.evaluate(fam, n, pts)
	}
	if err != nil {
		return nil, err
	}
	rep.TotalProbes = len(rep.Probes)
	return rep, nil
}

// merged overlays the sampled point on the spec's fixed parameters.
func merged(fixed map[string]float64, pt Point) Point {
	m := make(Point, len(fixed)+len(pt))
	for name, v := range fixed {
		m[name] = v
	}
	for name, v := range pt {
		m[name] = v
	}
	return m
}

// evaluate resolves one batch of probes cache-first (see
// experiments.Resolve) into the engine's tally. Results are ordered by
// probe index.
func (e *Engine) evaluate(fam *scengen.Family, spec Spec, pts []Point) ([]ProbeResult, error) {
	results := make([]ProbeResult, len(pts))
	reqs := make([]experiments.RunRequest, len(pts))
	var fp experiments.FingerprintScratch
	for i, pt := range pts {
		params := merged(spec.Fixed, pt)
		resolved, err := fam.Resolve(params)
		if err != nil {
			return nil, err
		}
		inst, err := fam.Instantiate(resolved)
		if err != nil {
			return nil, err
		}
		opts := core.Options{
			Scenario:      inst.Scenario,
			FrictionScale: inst.FrictionScale,
			Fault:         spec.Fault,
			Interventions: spec.Interventions,
			Seed:          seedForPoint(spec.BaseSeed, spec.Family, resolved),
			Steps:         spec.Steps,
		}
		key, err := fp.Fingerprint(opts)
		if err != nil {
			return nil, err
		}
		results[i].Params = params
		reqs[i] = experiments.RunRequest{
			Key:      experiments.RunKey{Scenario: scenario.IDGenerated, Gap: inst.Scenario.InitialGap, Rep: i},
			Opts:     opts,
			CacheKey: key,
		}
	}
	outs, err := experiments.Resolve(e.exec, e.cache, reqs, e.Tally)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	for i, out := range outs {
		results[i].Outcome = out.Outcome
	}
	return results, nil
}

// runBoundary brackets the accident/no-accident frontier along one axis
// and bisects it to the requested tolerance. The two endpoint probes
// execute as one batch; bisection probes are inherently sequential.
func (e *Engine) runBoundary(fam *scengen.Family, spec Spec, rep *Report) error {
	b := spec.Boundary
	probe := func(pts []Point) ([]ProbeResult, error) {
		rs, err := e.evaluate(fam, spec, pts)
		if err != nil {
			return nil, err
		}
		rep.Probes = append(rep.Probes, rs...)
		return rs, nil
	}

	ends, err := probe([]Point{{b.Axis: b.Min}, {b.Axis: b.Max}})
	if err != nil {
		return err
	}
	res := &BoundaryResult{
		Axis:          b.Axis,
		AccidentAtMin: ends[0].Accident(),
		AccidentAtMax: ends[1].Accident(),
		Lo:            b.Min,
		Hi:            b.Max,
		Probes:        2,
	}
	rep.Boundary = res
	if res.AccidentAtMin == res.AccidentAtMax {
		// No frontier inside the range; report the untightened bracket.
		res.Frontier = (b.Min + b.Max) / 2
		return nil
	}
	res.Bracketed = true
	for res.Hi-res.Lo > b.Tolerance && res.Probes < b.MaxProbes {
		mid := (res.Lo + res.Hi) / 2
		rs, err := probe([]Point{{b.Axis: mid}})
		if err != nil {
			return err
		}
		res.Probes++
		if rs[0].Accident() == res.AccidentAtMin {
			res.Lo = mid
		} else {
			res.Hi = mid
		}
	}
	res.Frontier = (res.Lo + res.Hi) / 2
	res.Converged = res.Hi-res.Lo <= b.Tolerance
	return nil
}
