package explore

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/fi"
	"adasim/internal/metrics"
)

func axes2() []Axis {
	return []Axis{
		{Name: "trigger_gap", Min: 10, Max: 60},
		{Name: "lane_change_time", Min: 1, Max: 5},
	}
}

func TestGridEnumeration(t *testing.T) {
	axes := []Axis{
		{Name: "a", Min: 0, Max: 1, Points: 3},
		{Name: "b", Min: 10, Max: 20, Points: 2},
	}
	pts := GridPoints(axes)
	if len(pts) != 6 {
		t.Fatalf("grid size = %d, want 6", len(pts))
	}
	// First axis slowest: a stays 0 across the first two points.
	if pts[0]["a"] != 0 || pts[0]["b"] != 10 || pts[1]["a"] != 0 || pts[1]["b"] != 20 {
		t.Errorf("grid order wrong: %v", pts[:2])
	}
	if pts[5]["a"] != 1 || pts[5]["b"] != 20 {
		t.Errorf("grid end wrong: %v", pts[5])
	}
	// Points == 1 contributes the midpoint.
	single := GridPoints([]Axis{{Name: "a", Min: 0, Max: 10, Points: 1}})
	if len(single) != 1 || single[0]["a"] != 5 {
		t.Errorf("single-point axis = %v", single)
	}
	// No axes: one empty probe.
	if pts := GridPoints(nil); len(pts) != 1 || len(pts[0]) != 0 {
		t.Errorf("no-axes grid = %v", pts)
	}
}

// TestSamplerDeterminism pins the sampler determinism contract: the same
// seed yields byte-identical parameter sequences; different seeds do not.
func TestSamplerDeterminism(t *testing.T) {
	for name, sample := range map[string]func(seed int64) []Point{
		"lhs":    func(seed int64) []Point { return LHSPoints(axes2(), 16, seed) },
		"random": func(seed int64) []Point { return RandomPoints(axes2(), 16, seed) },
	} {
		a, err := json.Marshal(sample(7))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(sample(7))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed produced different sequences", name)
		}
		c, _ := json.Marshal(sample(8))
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds produced identical sequences", name)
		}
	}
}

// TestLHSStratification checks the Latin-hypercube property: every axis
// is hit exactly once per stratum.
func TestLHSStratification(t *testing.T) {
	const n = 20
	pts := LHSPoints(axes2(), n, 3)
	for _, ax := range axes2() {
		var strata []int
		for _, pt := range pts {
			v := pt[ax.Name]
			if v < ax.Min || v >= ax.Max {
				t.Fatalf("%s sample %v outside [%v, %v)", ax.Name, v, ax.Min, ax.Max)
			}
			strata = append(strata, int((v-ax.Min)/(ax.Max-ax.Min)*n))
		}
		sort.Ints(strata)
		for i, s := range strata {
			if s != i {
				t.Fatalf("%s: stratum %d hit %v times (strata %v)", ax.Name, i, s, strata)
			}
		}
	}
}

func TestSpecNormalizeAndValidate(t *testing.T) {
	base := Spec{Family: "cut-in", Axes: []Axis{{Name: "trigger_gap", Min: 10, Max: 60}}}
	n := base.Normalized()
	if n.Method != MethodGrid || n.Axes[0].Points != DefaultGridPoints || n.Steps != core.DefaultSteps {
		t.Errorf("normalized = %+v", n)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("valid grid spec rejected: %v", err)
	}
	// Boundary defaults: method inferred, tolerance/max filled, range
	// defaulting to the family box.
	b := Spec{Family: "cut-in", Boundary: &BoundarySpec{Axis: "trigger_gap"}}.Normalized()
	if b.Method != MethodBoundary || b.Boundary.Tolerance != DefaultTolerance ||
		b.Boundary.MaxProbes != DefaultMaxProbes {
		t.Errorf("boundary normalized = %+v", b.Boundary)
	}
	if b.Boundary.Min != 5 || b.Boundary.Max != 120 {
		t.Errorf("boundary range did not default to the family box: %+v", b.Boundary)
	}
	if err := b.Validate(); err != nil {
		t.Errorf("valid boundary spec rejected: %v", err)
	}

	bad := map[string]Spec{
		"unknown family": {Family: "nope"},
		"unknown axis":   {Family: "cut-in", Axes: []Axis{{Name: "warp", Min: 0, Max: 1}}},
		"axis outside box": {Family: "cut-in",
			Axes: []Axis{{Name: "trigger_gap", Min: 0, Max: 1000}}},
		"inverted axis": {Family: "cut-in",
			Axes: []Axis{{Name: "trigger_gap", Min: 60, Max: 10}}},
		"nan axis": {Family: "cut-in",
			Axes: []Axis{{Name: "trigger_gap", Min: math.NaN(), Max: 60}}},
		"duplicate axis": {Family: "cut-in", Axes: []Axis{
			{Name: "trigger_gap", Min: 10, Max: 60}, {Name: "trigger_gap", Min: 10, Max: 60}}},
		"fixed and swept": {Family: "cut-in", Fixed: map[string]float64{"trigger_gap": 20},
			Axes: []Axis{{Name: "trigger_gap", Min: 10, Max: 60}}},
		"nan fixed":             {Family: "cut-in", Fixed: map[string]float64{"trigger_gap": math.NaN()}},
		"lhs without axes":      {Family: "cut-in", Method: MethodLHS},
		"random without axes":   {Family: "cut-in", Method: MethodRandom},
		"fixed outside":         {Family: "cut-in", Fixed: map[string]float64{"trigger_gap": 1000}},
		"bad method":            {Family: "cut-in", Method: "simulated-annealing"},
		"ml":                    {Family: "cut-in", Interventions: core.InterventionSet{ML: true}},
		"huge steps":            {Family: "cut-in", Steps: MaxSteps + 1},
		"boundary without spec": {Family: "cut-in", Method: MethodBoundary},
		"boundary with axes": {Family: "cut-in", Axes: []Axis{{Name: "lead_speed", Min: 1, Max: 2}},
			Boundary: &BoundarySpec{Axis: "trigger_gap"}},
		"boundary tiny max probes": {Family: "cut-in",
			Boundary: &BoundarySpec{Axis: "trigger_gap", MaxProbes: 2}},
	}
	for name, spec := range bad {
		if err := spec.Normalized().Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, spec)
		}
	}
}

func TestSpecHashCanonical(t *testing.T) {
	a := Spec{Family: "cut-in", Boundary: &BoundarySpec{Axis: "trigger_gap"}}
	b := Spec{Family: "cut-in", Method: MethodBoundary, Steps: core.DefaultSteps,
		Boundary: &BoundarySpec{Axis: "trigger_gap", Min: 5, Max: 120,
			Tolerance: DefaultTolerance, MaxProbes: DefaultMaxProbes}}
	ha, err := a.Normalized().Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Normalized().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("implicit and explicit boundary defaults hash differently")
	}
	c := a
	c.BaseSeed = 9
	if hc, _ := c.Normalized().Hash(); hc == ha {
		t.Errorf("base seed change did not change the hash")
	}
}

// thresholdExec fabricates outcomes from the generated spec itself: a
// cut-in probe "crashes" iff its merge trigger gap is below the
// threshold. It lets the bisection logic be tested exactly.
type thresholdExec struct {
	threshold float64
	mu        sync.Mutex
	calls     int
}

func (x *thresholdExec) Execute(reqs []experiments.RunRequest, onDone func(int, experiments.RunOutcome)) ([]experiments.RunOutcome, error) {
	x.mu.Lock()
	x.calls += len(reqs)
	x.mu.Unlock()
	outs := make([]experiments.RunOutcome, len(reqs))
	for i, req := range reqs {
		trigger := req.Opts.Scenario.Generated.Actors[1].Behavior.LaneTrigger.Value
		out := metrics.NewOutcome()
		if trigger < x.threshold {
			out.Accident = metrics.AccidentA1
		}
		outs[i] = experiments.RunOutcome{Key: req.Key, Outcome: out}
		if onDone != nil {
			onDone(i, outs[i])
		}
	}
	return outs, nil
}

func TestBoundaryBisection(t *testing.T) {
	exec := &thresholdExec{threshold: 31.4}
	eng := New(exec, nil)
	rep, err := eng.Run(Spec{
		Family: "cut-in",
		Boundary: &BoundarySpec{
			Axis: "trigger_gap", Min: 5, Max: 60, Tolerance: 0.25,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Boundary
	if b == nil || !b.Bracketed || !b.Converged {
		t.Fatalf("boundary = %+v", b)
	}
	if !b.AccidentAtMin || b.AccidentAtMax {
		t.Errorf("endpoint classes = %v/%v, want accident at min only", b.AccidentAtMin, b.AccidentAtMax)
	}
	if math.Abs(b.Frontier-31.4) > 0.25 {
		t.Errorf("frontier = %v, want 31.4 +/- 0.25", b.Frontier)
	}
	if b.Hi-b.Lo > 0.25 {
		t.Errorf("bracket [%v, %v] wider than tolerance", b.Lo, b.Hi)
	}
	if b.Probes != len(rep.Probes) || eng.Tally.Runs() != b.Probes {
		t.Errorf("probe accounting: boundary %d, report %d, tally %d", b.Probes, len(rep.Probes), eng.Tally.Runs())
	}
	// Bracketing costs 2 probes, bisection log2(55/0.25) ~ 8 more.
	if b.Probes < 9 || b.Probes > 12 {
		t.Errorf("probes = %d, want ~10", b.Probes)
	}
}

func TestBoundaryUnbracketed(t *testing.T) {
	exec := &thresholdExec{threshold: -1} // never crashes
	eng := New(exec, nil)
	rep, err := eng.Run(Spec{
		Family:   "cut-in",
		Boundary: &BoundarySpec{Axis: "trigger_gap", Min: 5, Max: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Boundary
	if b.Bracketed || b.Probes != 2 || b.AccidentAtMin || b.AccidentAtMax {
		t.Errorf("unbracketed boundary = %+v", b)
	}
}

// mapCache is a trivial experiments.Cache for engine tests.
type mapCache struct {
	mu   sync.Mutex
	m    map[string]metrics.Outcome
	hits int
}

func newMapCache() *mapCache { return &mapCache{m: map[string]metrics.Outcome{}} }

func (c *mapCache) Get(key string) (metrics.Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.m[key]
	if ok {
		c.hits++
	}
	return out, ok
}

func (c *mapCache) Put(key string, out metrics.Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = out
}

// realSpec is a fast real-simulation exploration (short runs).
func realSpec() Spec {
	return Spec{
		Family: "cut-in",
		Method: MethodLHS,
		Axes: []Axis{
			{Name: "trigger_gap", Min: 10, Max: 60},
			{Name: "cutin_gap", Min: 20, Max: 50},
		},
		Samples: 6,
		Seed:    3,
		Steps:   300,
		Fault:   fi.DefaultParams(fi.TargetRelDistance),
	}
}

// TestEngineDeterminismAcrossParallelismAndCache pins the tentpole
// contract at the engine level: byte-identical reports for 1 vs 8
// workers, and for cold vs fully cached execution.
func TestEngineDeterminismAcrossParallelismAndCache(t *testing.T) {
	var encodings [][]byte
	cache := newMapCache()
	for _, par := range []int{1, 8, 8} { // third pass re-uses the warm cache
		eng := New(experiments.NewPool(par), cache)
		rep, err := eng.Run(realSpec())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		encodings = append(encodings, b)
		if len(encodings) == 3 && eng.Tally.Hits() != eng.Tally.Runs() {
			t.Errorf("warm pass: %d/%d probes from cache, want all", eng.Tally.Hits(), eng.Tally.Runs())
		}
	}
	if !bytes.Equal(encodings[0], encodings[1]) {
		t.Error("reports differ between 1-worker and 8-worker executors")
	}
	if !bytes.Equal(encodings[1], encodings[2]) {
		t.Error("cold and cached reports differ")
	}
}

// TestExplicitDefaultSharesCacheEntries pins the probe-identity
// contract: pinning a family parameter at its default value explicitly
// must produce the same run seeds — and therefore the same cache
// entries and outcomes — as leaving it implicit.
func TestExplicitDefaultSharesCacheEntries(t *testing.T) {
	implicit := realSpec()
	implicit.Method = MethodGrid
	implicit.Samples = 0
	implicit.Axes = []Axis{{Name: "trigger_gap", Min: 10, Max: 60, Points: 3}}

	explicit := implicit
	explicit.Fixed = map[string]float64{"cutin_gap": 38} // the family default

	cache := newMapCache()
	eng := New(experiments.NewPool(2), cache)
	repA, err := eng.Run(implicit)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Tally.Hits() != 0 {
		t.Fatalf("cold run reported %d cache hits", eng.Tally.Hits())
	}
	eng.Tally = new(experiments.Tally)
	repB, err := eng.Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Tally.Hits() != eng.Tally.Runs() || eng.Tally.Runs() == 0 {
		t.Errorf("explicit-default spec reused %d/%d cache entries, want all",
			eng.Tally.Hits(), eng.Tally.Runs())
	}
	for i := range repA.Probes {
		if repA.Probes[i].Outcome != repB.Probes[i].Outcome {
			t.Errorf("probe %d outcome differs between implicit and explicit default", i)
		}
	}
}

// TestEngineProbeParamsIncludeFixed checks the report echoes resolved
// parameters (fixed + sampled).
func TestEngineProbeParamsIncludeFixed(t *testing.T) {
	spec := realSpec()
	spec.Method = MethodGrid
	spec.Samples = 0
	spec.Axes = []Axis{{Name: "trigger_gap", Min: 10, Max: 60, Points: 3}}
	spec.Fixed = map[string]float64{"lead_speed": 12}
	eng := New(experiments.NewPool(2), nil)
	rep, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Probes) != 3 {
		t.Fatalf("probes = %d, want 3", len(rep.Probes))
	}
	for _, p := range rep.Probes {
		if p.Params["lead_speed"] != 12 {
			t.Errorf("probe params missing fixed value: %v", p.Params)
		}
		if _, ok := p.Params["trigger_gap"]; !ok {
			t.Errorf("probe params missing swept axis: %v", p.Params)
		}
	}
}
