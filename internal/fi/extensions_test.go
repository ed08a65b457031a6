package fi

import (
	"math"
	"testing"

	"adasim/internal/perception"
)

func TestExtendedTargetsNamed(t *testing.T) {
	for _, target := range ExtendedTargets() {
		if target.String() == "unknown" {
			t.Errorf("target %d has no name", target)
		}
	}
	if TargetLeadRemoval.String() != "lead-removal" {
		t.Errorf("name = %s", TargetLeadRemoval)
	}
}

func TestNewExtendedRejectsClassicTargets(t *testing.T) {
	if _, err := NewExtended(TargetRelDistance, DefaultExtensionParams()); err == nil {
		t.Error("classic target should be rejected")
	}
	if _, err := NewExtended(TargetLeadRemoval, ExtensionParams{RemovalBelow: -1}); err == nil {
		t.Error("invalid params should be rejected")
	}
}

// TestExtensionParamsValidateRejectsNaN pins the NaN-failing bounds: a
// NaN compares false against every sign check, so each field must be
// rejected by a comparison that NaN fails.
func TestExtensionParamsValidateRejectsNaN(t *testing.T) {
	for name, mod := range map[string]func(*ExtensionParams){
		"removal below":       func(p *ExtensionParams) { p.RemovalBelow = math.NaN() },
		"stealth rate":        func(p *ExtensionParams) { p.StealthRate = math.NaN() },
		"stealth max":         func(p *ExtensionParams) { p.StealthMax = math.NaN() },
		"lane-shift duration": func(p *ExtensionParams) { p.LaneShiftDuration = math.NaN() },
		"lane-shift ramp":     func(p *ExtensionParams) { p.LaneShiftRamp = math.NaN() },
	} {
		p := DefaultExtensionParams()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("NaN %s should fail", name)
		}
	}
}

func TestLeadRemoval(t *testing.T) {
	inj, err := NewExtended(TargetLeadRemoval, DefaultExtensionParams())
	if err != nil {
		t.Fatal(err)
	}
	// Out of range: untouched.
	out := perception.Output{LeadValid: true, LeadDistance: 70, LeadSpeed: 13}
	if inj.Apply(1, &out) {
		t.Error("should not trigger at 70 m with RemovalBelow 60")
	}
	// In range: the lead disappears.
	out = perception.Output{LeadValid: true, LeadDistance: 50, LeadSpeed: 13}
	if !inj.Apply(2, &out) {
		t.Fatal("removal should trigger at 50 m")
	}
	if out.LeadValid || out.LeadDistance != 0 || out.LeadSpeed != 0 {
		t.Errorf("lead not removed: %+v", out)
	}
	if inj.FirstActiveAt() != 2 {
		t.Errorf("FirstActiveAt = %v", inj.FirstActiveAt())
	}
}

func TestStealthyDistanceGrowsSlowly(t *testing.T) {
	p := DefaultExtensionParams()
	inj, err := NewExtended(TargetStealthyDistance, p)
	if err != nil {
		t.Fatal(err)
	}
	// At activation the offset is zero, then grows at StealthRate.
	out := perception.Output{LeadValid: true, LeadDistance: 50}
	inj.Apply(10, &out)
	if out.LeadDistance != 50 {
		t.Errorf("offset at activation = %v", out.LeadDistance-50)
	}
	out = perception.Output{LeadValid: true, LeadDistance: 50}
	inj.Apply(12, &out) // 2 s later
	want := 50 + 2*p.StealthRate
	if math.Abs(out.LeadDistance-want) > 1e-9 {
		t.Errorf("RD after 2 s = %v, want %v", out.LeadDistance, want)
	}
	// Capped at StealthMax.
	out = perception.Output{LeadValid: true, LeadDistance: 50}
	inj.Apply(10+1000, &out)
	if got := out.LeadDistance - 50; got != p.StealthMax {
		t.Errorf("cap = %v, want %v", got, p.StealthMax)
	}
}

func TestStealthyStaysUnderJumpThreshold(t *testing.T) {
	// The defining property: per-cycle growth is below any plausible
	// frame-to-frame jump detector (paper-cited stealthy attacks).
	p := DefaultExtensionParams()
	perCycle := p.StealthRate * 0.01
	if perCycle > 0.05 {
		t.Errorf("stealth rate per cycle %v is not stealthy", perCycle)
	}
}

func TestLaneShift(t *testing.T) {
	p := DefaultExtensionParams()
	p.LaneShiftRamp = 0 // full shift instantly
	inj, err := NewExtended(TargetLaneShift, p)
	if err != nil {
		t.Fatal(err)
	}
	// Inactive off-patch.
	out := perception.Output{LaneLineLeft: 1.75, LaneLineRight: 1.75}
	if inj.Apply(1, &out) {
		t.Error("should not trigger off-patch")
	}
	// On the patch: lines shift, sum preserved (the stealthy property).
	out = perception.Output{OnPatch: true, LaneLineLeft: 1.75, LaneLineRight: 1.75}
	if !inj.Apply(2, &out) {
		t.Fatal("lane shift should trigger on-patch")
	}
	if math.Abs((out.LaneLineLeft+out.LaneLineRight)-3.5) > 1e-9 {
		t.Errorf("line sum changed: %v", out.LaneLineLeft+out.LaneLineRight)
	}
	if out.LaneLineLeft-1.75 != p.LaneShift {
		t.Errorf("left shift = %v", out.LaneLineLeft-1.75)
	}
	if out.DesiredCurvature <= 0 {
		t.Errorf("shifted centre should add left curvature, got %v", out.DesiredCurvature)
	}
	// Persists for the duration after the patch.
	out = perception.Output{LaneLineLeft: 1.75, LaneLineRight: 1.75}
	if !inj.Apply(5, &out) {
		t.Error("shift should persist within the duration")
	}
	out = perception.Output{LaneLineLeft: 1.75, LaneLineRight: 1.75}
	if inj.Apply(2+p.LaneShiftDuration+1, &out) {
		t.Error("shift should expire after the duration")
	}
}

func TestLaneShiftRamp(t *testing.T) {
	p := DefaultExtensionParams()
	inj, _ := NewExtended(TargetLaneShift, p)
	out := perception.Output{OnPatch: true, LaneLineLeft: 1.75, LaneLineRight: 1.75}
	inj.Apply(0, &out)
	if out.LaneLineLeft != 1.75 {
		t.Errorf("ramp start shift = %v", out.LaneLineLeft-1.75)
	}
	out = perception.Output{OnPatch: true, LaneLineLeft: 1.75, LaneLineRight: 1.75}
	inj.Apply(p.LaneShiftRamp/2, &out)
	if math.Abs((out.LaneLineLeft-1.75)-p.LaneShift/2) > 1e-9 {
		t.Errorf("half-ramp shift = %v", out.LaneLineLeft-1.75)
	}
}
