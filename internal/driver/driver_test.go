package driver

import (
	"math"
	"testing"
)

const dt = 0.01

// calm is an observation with nothing wrong.
func calm(t float64) Observation {
	return Observation{
		T:             t,
		EgoSpeed:      20,
		SpeedLimit:    22.35,
		LaneLineLeft:  0.8,
		LaneLineRight: 0.8,
	}
}

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// drive feeds obs for every step in [from, to) and returns the last
// intervention.
func drive(m *Model, from, to float64, make func(t float64) Observation) Intervention {
	var iv Intervention
	for t := from; t < to; t += dt {
		iv = m.Update(make(t), dt)
	}
	return iv
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.ReactionTime = -1 },
		func(c *Config) { c.VehicleLength = 0 },
		func(c *Config) { c.BrakeDecel = 0 },
		func(c *Config) { c.BrakeJerk = 0 },
		func(c *Config) { c.LaneLineMargin = -1 },
		func(c *Config) { c.ReactionTime = math.NaN() },
		func(c *Config) { c.VehicleLength = math.NaN() },
		func(c *Config) { c.BrakeDecel = math.NaN() },
		func(c *Config) { c.BrakeJerk = math.NaN() },
		func(c *Config) { c.LaneLineMargin = math.NaN() },
	}
	for i, mod := range bad {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestNoInterventionWhenCalm(t *testing.T) {
	m := newModel(t)
	iv := drive(m, 0, 10, calm)
	if iv.Any() {
		t.Errorf("calm driving should not intervene: %+v", iv)
	}
	if m.FirstBrakeAt() != -1 || m.FirstSteerAt() != -1 {
		t.Error("no interventions should be recorded")
	}
}

func TestFCWTriggersBrakeAfterReactionTime(t *testing.T) {
	m := newModel(t)
	fcw := func(t float64) Observation {
		ob := calm(t)
		ob.FCW = true
		ob.LeadValid = true
		ob.LeadGap = 30
		ob.LeadSpeed = 10
		return ob
	}
	// Just before the reaction time: nothing yet.
	iv := drive(m, 0, 2.49, fcw)
	if iv.BrakeActive {
		t.Error("braking before reaction time elapsed")
	}
	iv = drive(m, 2.49, 2.6, fcw)
	if !iv.BrakeActive {
		t.Fatal("expected braking after reaction time")
	}
	if iv.BrakeAccel >= 0 {
		t.Errorf("brake accel = %v", iv.BrakeAccel)
	}
	if got := m.FirstBrakeAt(); math.Abs(got-2.5) > 0.02 {
		t.Errorf("FirstBrakeAt = %v, want ~2.5", got)
	}
	if m.BrakeCause() != CondFCW {
		t.Errorf("cause = %v", m.BrakeCause())
	}
}

func TestBrakeRampIsJerkLimited(t *testing.T) {
	m := newModel(t)
	fcw := func(t float64) Observation {
		ob := calm(t)
		ob.FCW = true
		ob.LeadValid = true
		ob.LeadGap = 30
		ob.LeadSpeed = 5
		return ob
	}
	prev := drive(m, 0, 2.55, fcw).BrakeAccel
	for tm := 2.55; tm < 3.5; tm += dt {
		iv := m.Update(fcw(tm), dt)
		if prev-iv.BrakeAccel > DefaultConfig().BrakeJerk*dt+1e-9 {
			t.Fatalf("jerk limit violated: %v -> %v", prev, iv.BrakeAccel)
		}
		prev = iv.BrakeAccel
	}
	if math.Abs(prev+DefaultConfig().BrakeDecel) > 0.01 {
		t.Errorf("ramp should converge to -BrakeDecel, got %v", prev)
	}
}

func TestUnsafeFollowingDistance(t *testing.T) {
	m := newModel(t)
	ob := func(t float64) Observation {
		o := calm(t)
		o.LeadValid = true
		o.LeadGap = 3.0 // below one vehicle length
		o.LeadSpeed = 20
		return o
	}
	drive(m, 0, 2.6, ob)
	if m.BrakeCause() != CondUnsafeFollowingDistance {
		t.Errorf("cause = %v", m.BrakeCause())
	}
	if m.FirstBrakeAt() < 0 {
		t.Error("expected braking")
	}
}

func TestUnexpectedAcceleration(t *testing.T) {
	m := newModel(t)
	ob := func(t float64) Observation {
		o := calm(t)
		o.LeadValid = true
		o.LeadGap = 12
		o.LeadSpeed = 10
		o.EgoAccel = 1.2 // accelerating toward a close, slower lead
		return o
	}
	drive(m, 0, 2.6, ob)
	if m.BrakeCause() != CondUnexpectedAccel {
		t.Errorf("cause = %v", m.BrakeCause())
	}
}

func TestUnsafeCruiseSpeed(t *testing.T) {
	m := newModel(t)
	ob := func(t float64) Observation {
		o := calm(t)
		o.EgoSpeed = o.SpeedLimit * 1.15 // > 10% over the limit
		return o
	}
	drive(m, 0, 2.6, ob)
	if m.BrakeCause() != CondUnsafeCruiseSpeed {
		t.Errorf("cause = %v", m.BrakeCause())
	}
}

func TestCutInTriggersBrake(t *testing.T) {
	m := newModel(t)
	ob := func(t float64) Observation {
		o := calm(t)
		o.CutIn = true
		return o
	}
	drive(m, 0, 2.6, ob)
	if m.BrakeCause() != CondCutIn {
		t.Errorf("cause = %v", m.BrakeCause())
	}
}

func TestLaneProximitySteersAfterReaction(t *testing.T) {
	m := newModel(t)
	ob := func(t float64) Observation {
		o := calm(t)
		o.LaneLineLeft = 0.3 // inside the 0.5 m margin
		o.LaneLineRight = 3.2
		o.LaneOffset = 0.5
		return o
	}
	iv := drive(m, 0, 2.49, ob)
	if iv.SteerActive {
		t.Error("steering before reaction time")
	}
	iv = drive(m, 2.49, 2.6, ob)
	if !iv.SteerActive {
		t.Fatal("expected steering")
	}
	// Offset to the left: correction must steer right (negative).
	if iv.SteerCurvature >= 0 {
		t.Errorf("steer curvature = %v, want negative", iv.SteerCurvature)
	}
	if m.SteerCause() != CondUnsafeLaneDistance {
		t.Errorf("cause = %v", m.SteerCause())
	}
}

func TestPredictiveLDW(t *testing.T) {
	m := newModel(t)
	// Fast lateral drift toward the left line: LDW fires before the
	// 0.5 m margin is reached.
	ob := func(t float64) Observation {
		o := calm(t)
		o.LaneLineLeft = 0.7
		o.LaneLineRight = 2.8
		o.Psi = 0.05 // latVel = 20*sin(0.05) ~ 1.0 m/s
		o.SinPsi = math.Sin(o.Psi)
		o.LaneOffset = 0.3
		return o
	}
	drive(m, 0, 2.6, ob)
	if m.SteerCause() != CondLaneDepartureWarning {
		t.Errorf("cause = %v, want LDW", m.SteerCause())
	}
}

func TestBrakeKeepsSteeringUnchanged(t *testing.T) {
	// Per Table II, the emergency brake reaction does not steer.
	m := newModel(t)
	ob := func(t float64) Observation {
		o := calm(t)
		o.FCW = true
		o.LeadValid = true
		o.LeadGap = 20
		o.LeadSpeed = 5
		return o
	}
	iv := drive(m, 0, 2.6, ob)
	if !iv.BrakeActive || iv.SteerActive {
		t.Errorf("expected brake only: %+v", iv)
	}
}

func TestBrakeReleaseAfterStop(t *testing.T) {
	m := newModel(t)
	danger := func(t float64) Observation {
		o := calm(t)
		o.FCW = true
		o.LeadValid = true
		o.LeadGap = 20
		o.LeadSpeed = 5
		return o
	}
	drive(m, 0, 3.0, danger)
	// Conditions clear and the ego has stopped: release after
	// ReleaseAfter seconds.
	stopped := func(t float64) Observation {
		o := calm(t)
		o.EgoSpeed = 0.2
		return o
	}
	iv := drive(m, 3.0, 4.5, stopped)
	if iv.BrakeActive {
		t.Error("brake should release after conditions clear at standstill")
	}
}

func TestSteerHold(t *testing.T) {
	m := newModel(t)
	drift := func(t float64) Observation {
		o := calm(t)
		o.LaneLineLeft = 0.2
		o.LaneLineRight = 3.3
		o.LaneOffset = 0.6
		return o
	}
	drive(m, 0, 2.6, drift)
	if m.FirstSteerAt() < 0 {
		t.Fatal("expected steering")
	}
	// Re-centred immediately: the driver still holds the wheel for
	// SteerHold seconds.
	centred := func(t float64) Observation { return calm(t) }
	iv := drive(m, 2.6, 5.0, centred)
	if !iv.SteerActive {
		t.Error("driver should hold steering during SteerHold")
	}
	iv = drive(m, 5.0, 12.0, centred)
	if iv.SteerActive {
		t.Error("driver should hand back after SteerHold")
	}
}

func TestReactionTimeConfigurable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReactionTime = 1.0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ob := func(t float64) Observation {
		o := calm(t)
		o.FCW = true
		o.LeadValid = true
		o.LeadGap = 25
		o.LeadSpeed = 10
		return o
	}
	var iv Intervention
	for t := 0.0; t < 1.1; t += dt {
		iv = m.Update(ob(t), dt)
	}
	if !iv.BrakeActive {
		t.Error("1.0 s reaction driver should have braked by 1.1 s")
	}
}

func TestConditionStrings(t *testing.T) {
	for c := CondNone; c <= CondUnsafeLaneDistance; c++ {
		if c.String() == "unknown" {
			t.Errorf("condition %d has no name", c)
		}
	}
	if !CondFCW.IsBrakeCondition() || CondLaneDepartureWarning.IsBrakeCondition() {
		t.Error("brake/steer classification wrong")
	}
}

func TestStochasticReactionTimes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReactionSigma = 0.3
	if _, err := New(cfg); err == nil {
		t.Error("stochastic config should require NewSeeded")
	}
	// Sampled reaction times vary across models with different seeds.
	times := map[float64]bool{}
	for seed := int64(0); seed < 5; seed++ {
		m, err := NewSeeded(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		fcw := func(tm float64) Observation {
			o := calm(tm)
			o.FCW = true
			o.LeadValid = true
			o.LeadGap = 30
			o.LeadSpeed = 10
			return o
		}
		for tm := 0.0; tm < 8; tm += dt {
			m.Update(fcw(tm), dt)
			if m.FirstBrakeAt() >= 0 {
				break
			}
		}
		if m.FirstBrakeAt() < 0 {
			t.Fatalf("seed %d: never braked", seed)
		}
		times[m.FirstBrakeAt()] = true
	}
	if len(times) < 3 {
		t.Errorf("reaction times not stochastic: %v", times)
	}
}

func TestStochasticReactionMedian(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReactionSigma = 0.25
	m, err := NewSeeded(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	var below, above int
	for i := 0; i < 2000; i++ {
		r := m.sampleReaction()
		if r <= 0 {
			t.Fatalf("non-positive reaction %v", r)
		}
		if r < cfg.ReactionTime {
			below++
		} else {
			above++
		}
	}
	// Lognormal with median ReactionTime: roughly half on each side.
	if below < 800 || above < 800 {
		t.Errorf("median skewed: %d below, %d above", below, above)
	}
}
