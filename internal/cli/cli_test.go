package cli

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"

	"adasim/internal/aebs"
	"adasim/internal/core"
	"adasim/internal/explore"
	"adasim/internal/fi"
	"adasim/internal/scenario"
)

// TestSpellings pins every spelling the commands have accepted — the
// README, the Makefile smokes, scripts/*.sh, and the per-binary parsers
// this package replaced — to the value those parsers gave it.
func TestSpellings(t *testing.T) {
	faults := map[string]fi.Target{
		"": fi.TargetNone, "none": fi.TargetNone, "off": fi.TargetNone,
		"rd": fi.TargetRelDistance, "RD": fi.TargetRelDistance, "relative-distance": fi.TargetRelDistance,
		"curv": fi.TargetCurvature, "curvature": fi.TargetCurvature, "Curvature": fi.TargetCurvature,
		"desired-curvature": fi.TargetCurvature, "mixed": fi.TargetMixed, "MIXED": fi.TargetMixed,
	}
	for s, target := range faults {
		got, err := parseFault(s)
		if err != nil {
			t.Errorf("fault %q: %v", s, err)
			continue
		}
		want := fi.Params{}
		if target != fi.TargetNone {
			want = fi.DefaultParams(target)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fault %q = %+v, want %+v", s, got, want)
		}
	}

	aeb := map[string]aebs.InputSource{
		"": 0, "off": 0, "none": 0, "OFF": 0,
		"comp": aebs.SourceCompromised, "compromised": aebs.SourceCompromised,
		"indep": aebs.SourceIndependent, "independent": aebs.SourceIndependent,
		"Independent": aebs.SourceIndependent,
	}
	for s, want := range aeb {
		if got, err := lookup("aeb source", s, aebLabels); err != nil || got != want {
			t.Errorf("aeb %q = %v, %v; want %v", s, got, err, want)
		}
	}

	scenarios := map[string][]scenario.ID{
		"": nil, "1": {scenario.S1}, "S1": {scenario.S1}, "s1": {scenario.S1},
		"S6": {scenario.S6}, "1,S4, s6": {scenario.S1, scenario.S4, scenario.S6},
	}
	for s, want := range scenarios {
		if got, err := parseScenarios(s); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("scenarios %q = %v, %v; want %v", s, got, err, want)
		}
	}

	gaps := map[string][]float64{"": nil, "60": {60}, "60,230": {60, 230}, " 230 ": {230}}
	for s, want := range gaps {
		if got, err := parseGaps(s); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("gaps %q = %v, %v; want %v", s, got, err, want)
		}
	}
}

// TestUnknownSpellingsListCanonical checks that a bad label fails and
// names the canonical spellings.
func TestUnknownSpellingsListCanonical(t *testing.T) {
	cases := []struct {
		flag, value, want string
	}{
		{"-fault", "curve", "none|rd|curv|mixed"},
		{"-fault", "rd2", "none|rd|curv|mixed"},
		{"-aeb", "on", "off|comp|indep"},
		{"-scenario", "S7", "S1|S2|S3|S4|S5|S6"},
		{"-scenario", "0", "S1|S2|S3|S4|S5|S6"},
		{"-scenarios", "S1,GEN", "S1|S2|S3|S4|S5|S6"},
		{"-gaps", "60,far", `bad gap "far"`},
	}
	for _, c := range cases {
		fs := NewFlagSet("test", &bytes.Buffer{})
		BindScenario(fs)
		BindGrid(fs)
		BindAttack(fs)
		err := fs.Parse([]string{c.flag, c.value})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %q: err = %v, want it to contain %q", c.flag, c.value, err, c.want)
		}
	}
}

// TestBoundCommandLines parses command lines from the README, the
// Makefile smokes and scripts/*.sh through the binders and checks the
// values each parent parser produced.
func TestBoundCommandLines(t *testing.T) {
	parse := func(args string) (*Scenario, *Grid, *Attack) {
		t.Helper()
		fs := NewFlagSet("test", &bytes.Buffer{})
		s, g, a := BindScenario(fs), BindGrid(fs), BindAttack(fs)
		fs.Bool("wait", false, "")
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		return s, g, a
	}

	// scripts/metrics_smoke.sh and the README's adasimctl submit.
	_, g, a := parse("-scenarios 1 -gaps 60 -fault rd -driver")
	if !reflect.DeepEqual(g.Scenarios, []scenario.ID{scenario.S1}) || !reflect.DeepEqual(g.Gaps, []float64{60}) ||
		!reflect.DeepEqual(a.Fault, fi.DefaultParams(fi.TargetRelDistance)) ||
		a.Interventions != (core.InterventionSet{Driver: true}) {
		t.Errorf("metrics smoke: grid %+v attack %+v", g, a)
	}
	_, g, a = parse("-fault rd -driver -check -aeb indep -wait")
	if g.Scenarios != nil || g.Gaps != nil ||
		a.Interventions != (core.InterventionSet{Driver: true, SafetyCheck: true, AEB: aebs.SourceIndependent}) {
		t.Errorf("README submit: grid %+v attack %+v", g, a)
	}

	// The README's adasim examples.
	s, _, a := parse("-scenario S4 -fault rd -aeb independent -driver")
	if s.ID != scenario.S4 || s.Gap != 60 || a.Fault.Target != fi.TargetRelDistance ||
		a.Interventions != (core.InterventionSet{Driver: true, AEB: aebs.SourceIndependent}) {
		t.Errorf("adasim S4: scenario %+v attack %+v", s, a)
	}
	s, _, a = parse("-scenario s1 -gap 230 -fault curvature -monitor")
	if s.ID != scenario.S1 || s.Gap != 230 || a.Fault.Target != fi.TargetCurvature ||
		a.Interventions != (core.InterventionSet{Monitor: true}) {
		t.Errorf("adasim S1: scenario %+v attack %+v", s, a)
	}
	// Defaults are the parents' defaults.
	s, g, a = parse("")
	if s.ID != scenario.S1 || s.Gap != 60 || g.Scenarios != nil || g.Gaps != nil ||
		!reflect.DeepEqual(a, &Attack{}) {
		t.Errorf("defaults: %+v %+v %+v", s, g, a)
	}
}

// TestExploreFlags checks the exploration binder against the specs the
// Makefile's explore-smoke and the README's boundary search describe.
func TestExploreFlags(t *testing.T) {
	spec := func(args ...string) explore.Spec {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		e := BindExplore(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		s, err := e.Spec()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	got := spec("-family", "cut-in", "-method", "lhs", "-samples", "4", "-steps", "600",
		"-axes", "trigger_gap=10:50", "-fault", "rd")
	want := explore.Spec{Family: "cut-in", Method: "lhs", Samples: 4, Steps: 600,
		Axes:  []explore.Axis{{Name: "trigger_gap", Min: 10, Max: 50}},
		Fault: fi.DefaultParams(fi.TargetRelDistance)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lhs smoke:\n got %+v\nwant %+v", got, want)
	}
	got = spec("-family", "cut-in", "-boundary-axis", "trigger_gap", "-boundary-min", "5",
		"-boundary-max", "60", "-tol", "2", "-driver", "-steps", "800", "-fixed", "cutin_gap=25",
		"-fault", "curv", "-aeb", "comp")
	want = explore.Spec{Family: "cut-in", Steps: 800,
		Fixed:         map[string]float64{"cutin_gap": 25},
		Fault:         fi.DefaultParams(fi.TargetCurvature),
		Interventions: core.InterventionSet{Driver: true, AEB: aebs.SourceCompromised},
		Boundary:      &explore.BoundarySpec{Axis: "trigger_gap", Min: 5, Max: 60, Tolerance: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("boundary smoke:\n got %+v\nwant %+v", got, want)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e := BindExplore(fs)
	if err := fs.Parse([]string{"-axes", "trigger_gap"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Spec(); err == nil {
		t.Error("a malformed -axes must fail")
	}
}
