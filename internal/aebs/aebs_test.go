package aebs

import (
	"math"
	"testing"
	"testing/quick"
)

func newSys(t *testing.T, src InputSource) *System {
	t.Helper()
	s, err := New(DefaultConfig(), src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.DriverDecel = 0 },
		func(c *Config) { c.ReactTime = -1 },
		func(c *Config) { c.PB1Div = 0 },
		func(c *Config) { c.PB2Div = c.PB1Div },
		func(c *Config) { c.FBDiv = c.PB2Div },
		func(c *Config) { c.DriverDecel = math.NaN() },
		func(c *Config) { c.ReactTime = math.NaN() },
		func(c *Config) { c.PB1Div = math.NaN() },
		func(c *Config) { c.PB2Div = math.NaN() },
		func(c *Config) { c.FBDiv = math.NaN() },
	}
	for i, mod := range bad {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := New(DefaultConfig(), InputSource(99)); err == nil {
		t.Error("unknown source should fail")
	}
}

func TestTTC(t *testing.T) {
	in := Inputs{EgoSpeed: 20, LeadValid: true, RD: 40, RS: 8}
	if got := in.TTC(); got != 5 {
		t.Errorf("TTC = %v", got)
	}
	opening := Inputs{EgoSpeed: 20, LeadValid: true, RD: 40, RS: -2}
	if !math.IsInf(opening.TTC(), 1) {
		t.Error("opening gap should be +Inf TTC")
	}
	noLead := Inputs{EgoSpeed: 20, RS: 5, RD: 40}
	if !math.IsInf(noLead.TTC(), 1) {
		t.Error("no lead should be +Inf TTC")
	}
}

func TestFCWThreshold(t *testing.T) {
	s := newSys(t, SourceIndependent)
	// t_fcw = T_react + V/a_driver = 2.5 + 22.35/4.5.
	want := 2.5 + 22.35/4.5
	if got := s.FCWThreshold(22.35); math.Abs(got-want) > 1e-12 {
		t.Errorf("FCWThreshold = %v, want %v", got, want)
	}
}

func TestPhaseTableI(t *testing.T) {
	s := newSys(t, SourceIndependent)
	v := 19.0 // tpb1=5.0, tpb2=3.276, tfb=1.939, tfcw=6.72
	tests := []struct {
		ttc  float64
		want Phase
	}{
		{10, PhaseNone},
		{6.0, PhaseFCW},
		{4.5, PhaseBrake90},
		{3.0, PhaseBrake95},
		{1.5, PhaseBrake100},
	}
	for _, tt := range tests {
		if got := s.PhaseFor(v, tt.ttc); got != tt.want {
			t.Errorf("PhaseFor(%v, %v) = %v, want %v", v, tt.ttc, got, tt.want)
		}
	}
}

func TestBrakeFractions(t *testing.T) {
	fractions := map[Phase]float64{
		PhaseNone:     0,
		PhaseFCW:      0,
		PhaseBrake90:  0.90,
		PhaseBrake95:  0.95,
		PhaseBrake100: 1.00,
	}
	for phase, want := range fractions {
		if got := phase.BrakeFraction(); got != want {
			t.Errorf("%v.BrakeFraction() = %v, want %v", phase, got, want)
		}
	}
}

func TestPhaseMonotonicProperty(t *testing.T) {
	s := newSys(t, SourceIndependent)
	f := func(v, ttc1, ttc2 float64) bool {
		if v < 0 || v > 40 || ttc1 < 0 || ttc2 < 0 || ttc1 > 100 || ttc2 > 100 {
			return true
		}
		lo, hi := math.Min(ttc1, ttc2), math.Max(ttc1, ttc2)
		// Smaller TTC never yields a weaker response.
		return s.PhaseFor(v, lo) >= s.PhaseFor(v, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisabledSourceDoesNothing(t *testing.T) {
	s := newSys(t, SourceDisabled)
	d := s.Update(1, Inputs{EgoSpeed: 20, LeadValid: true, RD: 5, RS: 15})
	if d.Braking() || d.FCW {
		t.Error("disabled AEBS must not act")
	}
}

func TestLatchHoldsWhileClosing(t *testing.T) {
	s := newSys(t, SourceIndependent)
	// Trigger full braking.
	d := s.Update(1, Inputs{EgoSpeed: 20, LeadValid: true, RD: 10, RS: 15})
	if !d.Braking() {
		t.Fatal("expected braking")
	}
	if s.FirstBrakeAt() != 1 {
		t.Errorf("FirstBrakeAt = %v", s.FirstBrakeAt())
	}
	// TTC recovers slightly but still closing: braking must hold.
	d = s.Update(2, Inputs{EgoSpeed: 10, LeadValid: true, RD: 30, RS: 1})
	if !d.Braking() {
		t.Error("latch should hold while closing")
	}
	// Gap opening and wide: release.
	d = s.Update(3, Inputs{EgoSpeed: 10, LeadValid: true, RD: 30, RS: -1})
	if d.Braking() {
		t.Error("latch should release once opening with room")
	}
}

func TestStandstillHold(t *testing.T) {
	s := newSys(t, SourceIndependent)
	s.Update(1, Inputs{EgoSpeed: 20, LeadValid: true, RD: 8, RS: 15})
	// Stopped right behind an obstacle: RS = 0 but RD < hold distance.
	d := s.Update(2, Inputs{EgoSpeed: 0, LeadValid: true, RD: 2, RS: 0})
	if !d.Braking() {
		t.Error("AEBS should hold the brake at standstill near an obstacle")
	}
	// Obstacle gone: release.
	d = s.Update(3, Inputs{EgoSpeed: 0, LeadValid: false})
	if d.Braking() {
		t.Error("AEBS should release once the obstacle is gone")
	}
}

func TestImminentCriterionLowSpeed(t *testing.T) {
	s := newSys(t, SourceIndependent)
	// Low ego speed re-approach: Table I thresholds are tiny
	// (v/3.8 = 1.3 s) but the remaining distance is inside the stopping
	// envelope, so the low-speed criterion must fire.
	d := s.Update(1, Inputs{EgoSpeed: 5, LeadValid: true, RD: 3.2, RS: 5})
	if d.Phase != PhaseBrake100 {
		t.Errorf("phase = %v, want full braking", d.Phase)
	}
}

func TestFCWBookkeeping(t *testing.T) {
	s := newSys(t, SourceCompromised)
	d := s.Update(4, Inputs{EgoSpeed: 22, LeadValid: true, RD: 140, RS: 20})
	if !d.FCW {
		t.Fatalf("expected FCW at TTC=7 < threshold %.2f", s.FCWThreshold(22))
	}
	if s.FirstFCWAt() != 4 {
		t.Errorf("FirstFCWAt = %v", s.FirstFCWAt())
	}
	s.Reset()
	if s.FirstFCWAt() != -1 || s.FirstBrakeAt() != -1 {
		t.Error("Reset should clear bookkeeping")
	}
}

func TestSourceStrings(t *testing.T) {
	if SourceDisabled.String() != "disabled" ||
		SourceCompromised.String() != "compromised" ||
		SourceIndependent.String() != "independent" {
		t.Error("source names wrong")
	}
	if PhaseBrake95.String() != "brake-95%" {
		t.Errorf("phase name = %s", PhaseBrake95)
	}
}
