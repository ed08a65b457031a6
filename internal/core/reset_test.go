package core

import (
	"math"
	"testing"

	"adasim/internal/aebs"
	"adasim/internal/fi"
	"adasim/internal/mlmit"
	"adasim/internal/nn"
	"adasim/internal/perception"
	"adasim/internal/scenario"
	"adasim/internal/vehicle"
)

// resetTestNet builds a small (untrained) mitigation network; Reset
// determinism must hold regardless of the weights.
func resetTestNet(t *testing.T) *nn.Network {
	t.Helper()
	net, err := nn.NewNetwork(mlmit.FeatureDim, []int{8, 4}, mlmit.OutputDim, 5)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestResetBitIdentical verifies the Reset contract: a reset platform
// with seed S produces a bit-identical trajectory (outcome, full trace,
// monitor events) to a freshly constructed platform with seed S — across
// scenarios, with a fault target active and the full intervention stack
// (driver, checker, AEBS, runtime monitor, ML mitigation) engaged.
func TestResetBitIdentical(t *testing.T) {
	net := resetTestNet(t)
	scenarios := []struct {
		name string
		opts Options
	}{
		{"S1-mixed-fault", Options{
			Scenario: scenario.DefaultSpec(scenario.S1, 60),
			Fault:    fi.DefaultParams(fi.TargetMixed),
			Interventions: InterventionSet{
				Driver: true, SafetyCheck: true, AEB: aebs.SourceIndependent,
				Monitor: true, ML: true, MLNet: net,
			},
			Steps:       2500,
			RecordTrace: true,
		}},
		{"S4-rd-fault", Options{
			Scenario: scenario.DefaultSpec(scenario.S4, 110),
			Fault:    fi.DefaultParams(fi.TargetRelDistance),
			Interventions: InterventionSet{
				Driver: true, AEB: aebs.SourceCompromised,
			},
			Steps:       2500,
			RecordTrace: true,
		}},
		{"S5-fault-free", Options{
			Scenario:    scenario.DefaultSpec(scenario.S5, 60),
			Steps:       2000,
			RecordTrace: true,
		}},
	}

	// One long-lived platform, reset from run to run the way the
	// campaign worker pool uses it; dirty it with an unrelated run first
	// (different scenario, seed, and road friction, so even the road
	// rebuild path is crossed).
	reused, err := NewPlatform(Options{
		Scenario:      scenario.DefaultSpec(scenario.S3, 90),
		FrictionScale: 0.5,
		Interventions: InterventionSet{Driver: true},
		Seed:          999,
		Steps:         500,
	})
	if err != nil {
		t.Fatal(err)
	}
	reused.Run()

	for _, tc := range scenarios {
		for _, seed := range []int64{1, 42} {
			opts := tc.opts
			opts.Seed = seed
			fresh, err := NewPlatform(opts)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			want := fresh.Run()
			if err := reused.Reset(opts, seed); err != nil {
				t.Fatalf("%s seed %d: Reset: %v", tc.name, seed, err)
			}
			got := reused.Run()

			if got.Outcome != want.Outcome {
				t.Errorf("%s seed %d: outcome mismatch\nfresh:  %+v\nreused: %+v",
					tc.name, seed, want.Outcome, got.Outcome)
			}
			if got.CheckerBlocked != want.CheckerBlocked {
				t.Errorf("%s seed %d: CheckerBlocked %d != %d",
					tc.name, seed, got.CheckerBlocked, want.CheckerBlocked)
			}
			if got.Trace.Len() != want.Trace.Len() {
				t.Fatalf("%s seed %d: trace length %d != %d",
					tc.name, seed, got.Trace.Len(), want.Trace.Len())
			}
			for i := range want.Trace.Samples {
				if got.Trace.Samples[i] != want.Trace.Samples[i] {
					t.Fatalf("%s seed %d: trace diverges at step %d\nfresh:  %+v\nreused: %+v",
						tc.name, seed, i, want.Trace.Samples[i], got.Trace.Samples[i])
				}
			}
		}
	}
}

// TestResetRejectsInvalidOptions ensures Reset validates like NewPlatform.
func TestResetRejectsInvalidOptions(t *testing.T) {
	p, err := NewPlatform(Options{Scenario: scenario.DefaultSpec(scenario.S1, 60), Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	bad := Options{} // zero scenario spec fails validation
	if err := p.Reset(bad, 1); err == nil {
		t.Error("Reset with invalid options should fail")
	}
}

// TestNewPlatformRejectsNaN pins that a NaN reaching a bound through
// Options fails construction instead of simulating: the JSON wire format
// cannot carry NaN, but Go callers can.
func TestNewPlatformRejectsNaN(t *testing.T) {
	nan := math.NaN()
	tests := []struct {
		name string
		mod  func(*Options)
	}{
		{"FrictionScale", func(o *Options) { o.FrictionScale = nan }},
		{"StepSize", func(o *Options) { o.StepSize = nan }},
		{"Vehicle.MaxSteer", func(o *Options) {
			p := vehicle.DefaultParams()
			p.MaxSteer = nan
			o.Vehicle = &p
		}},
		{"Perception.MinLookahead", func(o *Options) {
			c := perception.DefaultConfig()
			c.MinLookahead = nan
			o.Perception = &c
		}},
	}
	for _, tt := range tests {
		opts := Options{Scenario: scenario.DefaultSpec(scenario.S1, 60), Steps: 10}
		tt.mod(&opts)
		if _, err := NewPlatform(opts); err == nil {
			t.Errorf("%s = NaN: NewPlatform accepted it", tt.name)
		}
	}
}
