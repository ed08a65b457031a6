package monitor

import (
	"math"
	"math/rand"
	"testing"

	"adasim/internal/perception"
	"adasim/internal/vehicle"
)

const dt = 0.01

func newMon(t *testing.T) *Monitor {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.MaxDistanceJump = 0 },
		func(c *Config) { c.ResidualBias = 0 },
		func(c *Config) { c.ResidualThreshold = 0 },
		func(c *Config) { c.LateralStrikes = 0 },
		func(c *Config) { c.FallbackDecel = 0 },
		func(c *Config) { c.Hold = -1 },
		func(c *Config) { c.TrackLossMin = -1 },
		func(c *Config) { c.TrackLossMax = c.TrackLossMin - 1 },
		func(c *Config) { c.LateralMargin = -1 },
		func(c *Config) { c.ResidualWindow = 0 },
		func(c *Config) { c.ResidualCap = 0 },
		func(c *Config) { c.MaxDistanceJump = math.NaN() },
		func(c *Config) { c.ResidualBias = math.NaN() },
		func(c *Config) { c.ResidualThreshold = math.NaN() },
		func(c *Config) { c.ResidualCap = math.NaN() },
		func(c *Config) { c.TrackLossMin = math.NaN() },
		func(c *Config) { c.TrackLossMax = math.NaN() },
		func(c *Config) { c.LateralMargin = math.NaN() },
		func(c *Config) { c.FallbackDecel = math.NaN() },
		func(c *Config) { c.Hold = math.NaN() },
	}
	for i, mod := range bad {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// benignFrame produces a physically consistent closing sequence.
func benignFrame(i int, rng *rand.Rand) perception.Output {
	rd := 60 - float64(i)*dt*5 // closing at 5 m/s
	return perception.Output{
		EgoSpeed:      20,
		LeadValid:     true,
		LeadDistance:  rd + rng.NormFloat64()*0.15,
		LeadSpeed:     15,
		LaneLineLeft:  1.75 + rng.NormFloat64()*0.02,
		LaneLineRight: 1.75 + rng.NormFloat64()*0.02,
	}
}

func TestNoFalsePositivesOnBenignStream(t *testing.T) {
	m := newMon(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 800; i++ {
		d := m.Update(float64(i)*dt, benignFrame(i, rng), vehicle.Command{Accel: -1}, dt)
		if d.Active {
			t.Fatalf("false positive at step %d (cusum=%v)", i, m.cusum)
		}
	}
	if m.FirstDetectAt() >= 0 {
		t.Error("no detection should be recorded")
	}
}

func TestDistanceJumpDetected(t *testing.T) {
	m := newMon(t)
	rng := rand.New(rand.NewSource(2))
	var i int
	for ; i < 100; i++ {
		m.Update(float64(i)*dt, benignFrame(i, rng), vehicle.Command{}, dt)
	}
	// Inject the paper's tier boundary: the perceived distance jumps by
	// +38 m in one frame.
	frame := benignFrame(i, rng)
	frame.LeadDistance += 38
	d := m.Update(float64(i)*dt, frame, vehicle.Command{Accel: 1}, dt)
	if !d.LongAnomaly || !d.Active {
		t.Fatal("38 m jump not detected")
	}
	if d.Override.Accel > -DefaultConfig().FallbackDecel {
		t.Errorf("fallback should brake, got %v", d.Override.Accel)
	}
	if m.FirstDetectAt() < 0 {
		t.Error("detection time not recorded")
	}
}

func TestKinematicDriftDetected(t *testing.T) {
	// A smooth but kinematically impossible stream: the perceived
	// distance stays constant while the closing speed says 5 m/s.
	m := newMon(t)
	detected := false
	for i := 0; i < 1500; i++ {
		frame := perception.Output{
			EgoSpeed:      20,
			LeadValid:     true,
			LeadDistance:  40, // frozen
			LeadSpeed:     15, // closing at 5 m/s
			LaneLineLeft:  1.75,
			LaneLineRight: 1.75,
		}
		d := m.Update(float64(i)*dt, frame, vehicle.Command{}, dt)
		if d.LongAnomaly {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("kinematic inconsistency never detected")
	}
}

func TestLateralAnomalyDetected(t *testing.T) {
	m := newMon(t)
	detected := false
	for i := 0; i < 200; i++ {
		// Steering further left while the left line is 0.2 m away.
		frame := perception.Output{
			EgoSpeed:         15,
			LaneLineLeft:     0.2,
			LaneLineRight:    3.3,
			DesiredCurvature: 0.01,
		}
		d := m.Update(float64(i)*dt, frame, vehicle.Command{Curvature: 0.01}, dt)
		if d.LatAnomaly {
			detected = true
			if d.Override.Curvature >= 0.009 {
				t.Errorf("fallback curvature %v should not follow the attack", d.Override.Curvature)
			}
			break
		}
	}
	if !detected {
		t.Fatal("lateral anomaly never detected")
	}
}

func TestLateralTransientTolerated(t *testing.T) {
	m := newMon(t)
	// A brief (sub-strike-count) excursion must not trigger.
	for i := 0; i < DefaultConfig().LateralStrikes-1; i++ {
		frame := perception.Output{
			EgoSpeed:         15,
			LaneLineLeft:     0.3,
			LaneLineRight:    3.2,
			DesiredCurvature: 0.01,
		}
		if d := m.Update(float64(i)*dt, frame, vehicle.Command{}, dt); d.LatAnomaly {
			t.Fatalf("transient triggered at strike %d", i)
		}
	}
	// One clean frame resets the counter.
	clean := perception.Output{EgoSpeed: 15, LaneLineLeft: 1.7, LaneLineRight: 1.8}
	m.Update(1, clean, vehicle.Command{}, dt)
	frame := perception.Output{EgoSpeed: 15, LaneLineLeft: 0.3, LaneLineRight: 3.2, DesiredCurvature: 0.01}
	if d := m.Update(1.01, frame, vehicle.Command{}, dt); d.LatAnomaly {
		t.Error("counter should have reset")
	}
}

func TestRecoveryHold(t *testing.T) {
	m := newMon(t)
	rng := rand.New(rand.NewSource(3))
	var i int
	for ; i < 50; i++ {
		m.Update(float64(i)*dt, benignFrame(i, rng), vehicle.Command{}, dt)
	}
	frame := benignFrame(i, rng)
	frame.LeadDistance += 20
	m.Update(float64(i)*dt, frame, vehicle.Command{}, dt)
	// Subsequent benign frames within the hold window keep the fallback
	// active.
	d := m.Update(float64(i+1)*dt, benignFrame(i+1, rng), vehicle.Command{}, dt)
	if !d.Active {
		t.Error("fallback should stay active during the hold window")
	}
	// Well past the hold: released. (Advance time beyond Hold.)
	d = m.Update(float64(i)*dt+DefaultConfig().Hold+1, benignFrame(i+2, rng), vehicle.Command{}, dt)
	if d.Active {
		t.Error("fallback should release after the hold window")
	}
}

func TestTrackLossDetected(t *testing.T) {
	m := newMon(t)
	rng := rand.New(rand.NewSource(4))
	var i int
	for ; i < 100; i++ {
		m.Update(float64(i)*dt, benignFrame(i, rng), vehicle.Command{}, dt)
	}
	// The lead vanishes at ~55 m: mid-range track loss.
	frame := perception.Output{EgoSpeed: 20, LaneLineLeft: 1.75, LaneLineRight: 1.75}
	d := m.Update(float64(i)*dt, frame, vehicle.Command{Accel: 1}, dt)
	if !d.LongAnomaly || !d.Active {
		t.Fatal("mid-range track loss not detected")
	}
}

func TestCloseRangeDropoutNotFlagged(t *testing.T) {
	// The genuine close-range (<2 m) dropout is below TrackLossMin and
	// must not trigger the track-loss check (it is a known sensor
	// limitation, not an attack signature).
	m := newMon(t)
	for i := 0; i < 50; i++ {
		frame := perception.Output{
			EgoSpeed: 5, LeadValid: true, LeadDistance: 5 - float64(i)*0.06,
			LeadSpeed: 2, LaneLineLeft: 1.75, LaneLineRight: 1.75,
		}
		m.Update(float64(i)*dt, frame, vehicle.Command{}, dt)
	}
	frame := perception.Output{EgoSpeed: 5, LaneLineLeft: 1.75, LaneLineRight: 1.75}
	d := m.Update(0.51, frame, vehicle.Command{}, dt)
	if d.LongAnomaly {
		t.Error("close-range dropout should not be flagged as track loss")
	}
}

func TestRangeLimitLossNotFlagged(t *testing.T) {
	// A lead leaving the 80 m detection range is normal.
	m := newMon(t)
	for i := 0; i < 50; i++ {
		frame := perception.Output{
			EgoSpeed: 20, LeadValid: true, LeadDistance: 78 + float64(i)*0.04,
			LeadSpeed: 22, LaneLineLeft: 1.75, LaneLineRight: 1.75,
		}
		m.Update(float64(i)*dt, frame, vehicle.Command{}, dt)
	}
	frame := perception.Output{EgoSpeed: 20, LaneLineLeft: 1.75, LaneLineRight: 1.75}
	d := m.Update(0.51, frame, vehicle.Command{}, dt)
	if d.LongAnomaly {
		t.Error("range-limit loss should not be flagged")
	}
}
