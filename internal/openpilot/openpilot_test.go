package openpilot

import (
	"math"
	"testing"

	"adasim/internal/perception"
	"adasim/internal/units"
)

const dt = 0.01

func newCtl(t *testing.T) *Controller {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SetSpeed = 0 },
		func(c *Config) { c.GapTime = 0 },
		func(c *Config) { c.MinGap = -1 },
		func(c *Config) { c.AccelLimit = 0 },
		func(c *Config) { c.BrakeLimit = 0 },
		func(c *Config) { c.CurvatureRate = 0 },
		func(c *Config) { c.EngageTTC = -1 },
		func(c *Config) { c.BrakeJerk = -1 },
		func(c *Config) { c.SetSpeed = math.NaN() },
		func(c *Config) { c.GapTime = math.NaN() },
		func(c *Config) { c.MinGap = math.NaN() },
		func(c *Config) { c.AccelLimit = math.NaN() },
		func(c *Config) { c.BrakeLimit = math.NaN() },
		func(c *Config) { c.CurvatureRate = math.NaN() },
		func(c *Config) { c.EngageTTC = math.NaN() },
		func(c *Config) { c.BrakeJerk = math.NaN() },
	}
	for i, mod := range bad {
		cfg := DefaultConfig()
		mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestEngageStateMachine(t *testing.T) {
	c := newCtl(t)
	if c.State() != Engaged {
		t.Errorf("initial state = %v", c.State())
	}
	c.SetState(Overridden)
	cmd := c.Update(perception.Output{EgoSpeed: 10}, dt)
	if cmd.Accel != 0 {
		t.Errorf("overridden controller should command zero accel, got %v", cmd.Accel)
	}
	for _, s := range []EngageState{Disengaged, Engaged, Overridden} {
		if s.String() == "unknown" {
			t.Errorf("state %d has no name", s)
		}
	}
}

func TestCruiseTowardSetSpeed(t *testing.T) {
	c := newCtl(t)
	slow := perception.Output{EgoSpeed: 10}
	if cmd := c.Update(slow, dt); cmd.Accel <= 0 {
		t.Errorf("below set speed should accelerate, got %v", cmd.Accel)
	}
	c2 := newCtl(t)
	fast := perception.Output{EgoSpeed: 40}
	if cmd := c2.Update(fast, dt); cmd.Accel >= 0 {
		t.Errorf("above set speed should brake, got %v", cmd.Accel)
	}
}

func TestIgnoresDistantLead(t *testing.T) {
	c := newCtl(t)
	out := perception.Output{
		EgoSpeed:     units.MPHToMS(50),
		LeadValid:    true,
		LeadDistance: 75,
		LeadSpeed:    units.MPHToMS(50) - 2, // closing slowly: TTC ~37s
	}
	cmd := c.Update(out, dt)
	if cmd.Accel < -0.1 {
		t.Errorf("distant slow-closing lead should not brake yet, got %v", cmd.Accel)
	}
}

func TestBrakesWhenClose(t *testing.T) {
	c := newCtl(t)
	out := perception.Output{
		EgoSpeed:     20,
		LeadValid:    true,
		LeadDistance: 25, // well below desired gap of 40
		LeadSpeed:    13,
	}
	var cmd = c.Update(out, dt)
	for i := 0; i < 200; i++ { // let the jerk limit develop
		cmd = c.Update(out, dt)
	}
	if cmd.Accel >= -1 {
		t.Errorf("close lead should brake hard, got %v", cmd.Accel)
	}
}

func TestEmergencyBrakingAtLowTTC(t *testing.T) {
	c := newCtl(t)
	cfg := c.Config()
	out := perception.Output{
		EgoSpeed:     22,
		LeadValid:    true,
		LeadDistance: 15,
		LeadSpeed:    0, // stopped lead at 15 m
	}
	var cmd = c.Update(out, dt)
	for i := 0; i < 300; i++ {
		cmd = c.Update(out, dt)
	}
	if cmd.Accel > -cfg.BrakeLimit+0.5 {
		t.Errorf("imminent collision should command near max braking, got %v", cmd.Accel)
	}
}

func TestBrakeJerkLimit(t *testing.T) {
	c := newCtl(t)
	out := perception.Output{
		EgoSpeed:     22,
		LeadValid:    true,
		LeadDistance: 12,
		LeadSpeed:    0,
	}
	first := c.Update(out, dt)
	// After one step the command cannot exceed jerk*dt below zero.
	maxStep := c.Config().BrakeJerk * dt
	if first.Accel < -maxStep-1e-9 {
		t.Errorf("first-step brake %v exceeds jerk limit %v", first.Accel, -maxStep)
	}
	second := c.Update(out, dt)
	if second.Accel < first.Accel-maxStep-1e-9 {
		t.Errorf("jerk limit violated: %v -> %v", first.Accel, second.Accel)
	}
}

func TestBrakeReleaseIsImmediate(t *testing.T) {
	c := newCtl(t)
	braking := perception.Output{EgoSpeed: 22, LeadValid: true, LeadDistance: 12, LeadSpeed: 0}
	for i := 0; i < 300; i++ {
		c.Update(braking, dt)
	}
	clear := perception.Output{EgoSpeed: 10}
	cmd := c.Update(clear, dt)
	if cmd.Accel <= 0 {
		t.Errorf("brake release should be immediate, got %v", cmd.Accel)
	}
}

func TestLateralSlewLimit(t *testing.T) {
	c := newCtl(t)
	out := perception.Output{EgoSpeed: 20, DesiredCurvature: 0.1}
	cmd := c.Update(out, dt)
	maxStep := c.Config().CurvatureRate * dt
	if math.Abs(cmd.Curvature) > maxStep+1e-12 {
		t.Errorf("curvature slew violated: %v > %v", cmd.Curvature, maxStep)
	}
	prev := cmd.Curvature
	for i := 0; i < 10; i++ {
		cmd = c.Update(out, dt)
		if cmd.Curvature-prev > maxStep+1e-12 {
			t.Fatalf("slew violated at step %d", i)
		}
		prev = cmd.Curvature
	}
	if c.LastCurvature() != prev {
		t.Error("LastCurvature mismatch")
	}
}

func TestLateralTracksDesiredCurvature(t *testing.T) {
	c := newCtl(t)
	out := perception.Output{EgoSpeed: 20, DesiredCurvature: 0.003}
	var cmd = c.Update(out, dt)
	for i := 0; i < 500; i++ {
		cmd = c.Update(out, dt)
	}
	if math.Abs(cmd.Curvature-0.003) > 1e-6 {
		t.Errorf("curvature should converge to desired: %v", cmd.Curvature)
	}
}

func TestDesiredGap(t *testing.T) {
	c := newCtl(t)
	cfg := c.Config()
	want := cfg.MinGap + cfg.GapTime*13.4
	if got := c.DesiredGap(13.4); math.Abs(got-want) > 1e-12 {
		t.Errorf("DesiredGap = %v, want %v", got, want)
	}
}

func TestCloseRangeDropoutCausesAcceleration(t *testing.T) {
	// Observation 2: when the lead disappears from perception at close
	// range, the controller reverts to cruise and accelerates.
	c := newCtl(t)
	out := perception.Output{EgoSpeed: 10} // no lead perceived
	cmd := c.Update(out, dt)
	if cmd.Accel <= 0 {
		t.Errorf("no perceived lead below set speed should accelerate, got %v", cmd.Accel)
	}
}
