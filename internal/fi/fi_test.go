package fi

import (
	"math"
	"testing"
	"testing/quick"

	"adasim/internal/perception"
)

func TestDefaultParamsValid(t *testing.T) {
	for _, target := range Targets() {
		p := DefaultParams(target)
		if err := p.Validate(); err != nil {
			t.Errorf("%v: %v", target, err)
		}
	}
}

func TestValidateRejectsBadTiers(t *testing.T) {
	p := DefaultParams(TargetRelDistance)
	p.DistanceTiers = []DistanceTier{{Below: 80, Offset: 10}, {Below: 20, Offset: 38}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-order tiers should fail")
	}
	p2 := DefaultParams(TargetCurvature)
	p2.CurvatureDuration = -1
	if err := p2.Validate(); err == nil {
		t.Error("negative duration should fail")
	}
	p3 := DefaultParams(TargetCurvature)
	p3.CurvatureRamp = -1
	if err := p3.Validate(); err == nil {
		t.Error("negative ramp should fail")
	}
	for name, mod := range map[string]func(*Params){
		"tier below": func(p *Params) { p.DistanceTiers[1].Below = math.NaN() },
		"duration":   func(p *Params) { p.CurvatureDuration = math.NaN() },
		"ramp":       func(p *Params) { p.CurvatureRamp = math.NaN() },
	} {
		p := DefaultParams(TargetMixed)
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("NaN %s should fail", name)
		}
	}
}

func TestTargetStrings(t *testing.T) {
	names := map[Target]string{
		TargetNone:        "none",
		TargetRelDistance: "relative-distance",
		TargetCurvature:   "desired-curvature",
		TargetMixed:       "mixed",
	}
	for target, want := range names {
		if got := target.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", target, got, want)
		}
	}
}

func TestRDTierLadder(t *testing.T) {
	inj, err := New(DefaultParams(TargetRelDistance))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		rd   float64
		want float64 // perceived after injection
	}{
		{79, 89}, // +10 tier
		{30, 40}, // +10 tier
		{24, 39}, // +15 tier
		{19, 57}, // +38 tier
		{5, 43},  // +38 tier
		{85, 85}, // beyond trigger range: untouched
	}
	for _, tt := range tests {
		out := perception.Output{LeadValid: true, LeadDistance: tt.rd}
		inj.Apply(1, &out)
		if out.LeadDistance != tt.want {
			t.Errorf("RD %v -> %v, want %v", tt.rd, out.LeadDistance, tt.want)
		}
	}
}

func TestRDRequiresValidLead(t *testing.T) {
	inj, _ := New(DefaultParams(TargetRelDistance))
	out := perception.Output{LeadValid: false, LeadDistance: 30}
	if inj.Apply(1, &out) {
		t.Error("no lead: nothing to attack")
	}
	if out.LeadDistance != 30 {
		t.Error("output should be untouched")
	}
}

func TestRDNeverDecreasesDistance(t *testing.T) {
	inj, _ := New(DefaultParams(TargetRelDistance))
	f := func(rd float64) bool {
		if rd < 0 || rd > 200 {
			return true
		}
		out := perception.Output{LeadValid: true, LeadDistance: rd}
		inj.Apply(1, &out)
		// The attack makes the lead appear farther, never closer.
		return out.LeadDistance >= rd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCurvatureActivation(t *testing.T) {
	p := DefaultParams(TargetCurvature)
	p.CurvatureRamp = 0 // full value instantly, for exact assertions
	p.CurvatureDuration = 2
	inj, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Before the patch: inactive.
	out := perception.Output{DesiredCurvature: 0}
	if inj.Apply(0, &out); out.DesiredCurvature != 0 {
		t.Error("no injection before patch")
	}
	// On the patch: active.
	out = perception.Output{OnPatch: true}
	inj.Apply(1, &out)
	if out.DesiredCurvature != p.CurvatureOffset {
		t.Errorf("on-patch curvature = %v, want %v", out.DesiredCurvature, p.CurvatureOffset)
	}
	if !inj.Active() || !inj.EverActive() {
		t.Error("injector should be active")
	}
	// Off the patch but within duration: still active.
	out = perception.Output{}
	inj.Apply(2.5, &out)
	if out.DesiredCurvature != p.CurvatureOffset {
		t.Errorf("within duration curvature = %v", out.DesiredCurvature)
	}
	// Past the duration: inactive.
	out = perception.Output{}
	inj.Apply(3.5, &out)
	if out.DesiredCurvature != 0 {
		t.Errorf("expired curvature = %v", out.DesiredCurvature)
	}
	if inj.Active() {
		t.Error("injector should be inactive after duration")
	}
}

func TestCurvatureRamp(t *testing.T) {
	p := DefaultParams(TargetCurvature)
	p.CurvatureRamp = 2.0
	inj, _ := New(p)
	out := perception.Output{OnPatch: true}
	inj.Apply(10, &out) // activation instant: scale 0
	if out.DesiredCurvature != 0 {
		t.Errorf("ramp start should inject 0, got %v", out.DesiredCurvature)
	}
	out = perception.Output{OnPatch: true}
	inj.Apply(11, &out) // halfway
	if delta := out.DesiredCurvature - p.CurvatureOffset/2; delta > 1e-12 || delta < -1e-12 {
		t.Errorf("half-ramp = %v, want %v", out.DesiredCurvature, p.CurvatureOffset/2)
	}
	out = perception.Output{OnPatch: true}
	inj.Apply(13, &out) // past ramp: full value
	if out.DesiredCurvature != p.CurvatureOffset {
		t.Errorf("full ramp = %v", out.DesiredCurvature)
	}
}

func TestMixedAttack(t *testing.T) {
	p := DefaultParams(TargetMixed)
	p.CurvatureRamp = 0
	inj, _ := New(p)
	out := perception.Output{LeadValid: true, LeadDistance: 30, OnPatch: true}
	if !inj.Apply(1, &out) {
		t.Fatal("mixed attack should be active")
	}
	if out.LeadDistance != 40 {
		t.Errorf("RD component missing: %v", out.LeadDistance)
	}
	if out.DesiredCurvature != p.CurvatureOffset {
		t.Errorf("curvature component missing: %v", out.DesiredCurvature)
	}
}

func TestFirstActiveBookkeeping(t *testing.T) {
	inj, _ := New(DefaultParams(TargetRelDistance))
	if inj.FirstActiveAt() != -1 {
		t.Error("initial FirstActiveAt should be -1")
	}
	out := perception.Output{LeadValid: true, LeadDistance: 100}
	inj.Apply(1, &out) // out of trigger range
	if inj.EverActive() {
		t.Error("should not be active yet")
	}
	out = perception.Output{LeadValid: true, LeadDistance: 50}
	inj.Apply(2.5, &out)
	if got := inj.FirstActiveAt(); got != 2.5 {
		t.Errorf("FirstActiveAt = %v", got)
	}
	// First activation time is sticky.
	out = perception.Output{LeadValid: true, LeadDistance: 50}
	inj.Apply(3.5, &out)
	if got := inj.FirstActiveAt(); got != 2.5 {
		t.Errorf("FirstActiveAt moved to %v", got)
	}
}

func TestPassthroughInjector(t *testing.T) {
	inj, err := New(Params{Target: TargetNone})
	if err != nil {
		t.Fatal(err)
	}
	out := perception.Output{LeadValid: true, LeadDistance: 30, OnPatch: true, DesiredCurvature: 0.001}
	if inj.Apply(1, &out) {
		t.Error("TargetNone should never inject")
	}
	if out.LeadDistance != 30 || out.DesiredCurvature != 0.001 {
		t.Error("output modified by passthrough injector")
	}
}
