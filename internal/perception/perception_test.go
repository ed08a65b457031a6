package perception

import (
	"math"
	"testing"

	"adasim/internal/road"
	"adasim/internal/vehicle"
	"adasim/internal/world"
)

type holdCtrl struct{}

func (holdCtrl) Command(t float64, self *world.Actor, w *world.World) vehicle.Command {
	return vehicle.Command{}
}

func buildWorld(t *testing.T, egoState vehicle.State, actors ...vehicle.State) *world.World {
	t.Helper()
	r, err := road.BuildMap(road.MapStraight, 0, []road.PatchZone{{StartS: 200, EndS: 210, Lane: 1}})
	if err != nil {
		t.Fatal(err)
	}
	egoDyn, err := vehicle.New(vehicle.DefaultParams(), egoState)
	if err != nil {
		t.Fatal(err)
	}
	var acts []*world.Actor
	for _, st := range actors {
		dyn, err := vehicle.New(vehicle.DefaultParams(), st)
		if err != nil {
			t.Fatal(err)
		}
		acts = append(acts, &world.Actor{Name: "a", Dyn: dyn, Ctrl: holdCtrl{}})
	}
	w, err := world.New(world.Config{
		Road:   r,
		Ego:    &world.Actor{Name: "ego", Dyn: egoDyn},
		Actors: acts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// noiseless returns a config without noise or latency for deterministic
// assertions.
func noiseless() Config {
	cfg := DefaultConfig()
	cfg.DistanceNoise = 0
	cfg.SpeedNoise = 0
	cfg.LaneNoise = 0
	cfg.CurvatureNoise = 0
	cfg.LatencySteps = 0
	return cfg
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.DetectionRange = 0 },
		func(c *Config) { c.MinDetection = -1 },
		func(c *Config) { c.MinDetection = c.DetectionRange },
		func(c *Config) { c.Lookahead = -1 },
		func(c *Config) { c.LatencySteps = -1 },
		func(c *Config) { c.DetectionRange = math.NaN() },
		func(c *Config) { c.MinDetection = math.NaN() },
		func(c *Config) { c.Lookahead = math.NaN() },
		func(c *Config) { c.MinLookahead = -1 },
		func(c *Config) { c.MinLookahead = math.NaN() },
		func(c *Config) { c.MinLookahead = math.Inf(1) },
	}
	for i, mod := range bad {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := New(DefaultConfig(), 1); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestLeadDetectionRange(t *testing.T) {
	tests := []struct {
		name  string
		leadS float64
		want  bool
	}{
		{"in range", 80, true},
		{"beyond range", 200, false},
		{"too close", 35.5, false}, // gap ~0.6 m < MinDetection
	}
	for _, tt := range tests {
		w := buildWorld(t, vehicle.State{S: 30, V: 20}, vehicle.State{S: tt.leadS, V: 15})
		m, err := New(noiseless(), 1)
		if err != nil {
			t.Fatal(err)
		}
		out := m.Perceive(w)
		if out.LeadValid != tt.want {
			t.Errorf("%s: LeadValid = %v, want %v", tt.name, out.LeadValid, tt.want)
		}
	}
}

func TestLeadDistanceAccuracy(t *testing.T) {
	w := buildWorld(t, vehicle.State{S: 30, V: 20}, vehicle.State{S: 90, V: 12})
	m, _ := New(noiseless(), 1)
	out := m.Perceive(w)
	wantGap := 60.0 - vehicle.DefaultParams().Length
	if math.Abs(out.LeadDistance-wantGap) > 1e-9 {
		t.Errorf("LeadDistance = %v, want %v", out.LeadDistance, wantGap)
	}
	if math.Abs(out.LeadSpeed-12) > 1e-9 {
		t.Errorf("LeadSpeed = %v", out.LeadSpeed)
	}
	if math.Abs(out.RelSpeed()-8) > 1e-9 {
		t.Errorf("RelSpeed = %v", out.RelSpeed())
	}
}

func TestLaneLines(t *testing.T) {
	w := buildWorld(t, vehicle.State{S: 30, V: 20, D: 0.5})
	m, _ := New(noiseless(), 1)
	out := m.Perceive(w)
	if math.Abs(out.LaneLineLeft-1.25) > 1e-9 || math.Abs(out.LaneLineRight-2.25) > 1e-9 {
		t.Errorf("lane lines = %v, %v", out.LaneLineLeft, out.LaneLineRight)
	}
}

func TestDesiredCurvatureRecentres(t *testing.T) {
	m, _ := New(noiseless(), 1)
	// Offset to the left: desired curvature must steer right (negative).
	wLeft := buildWorld(t, vehicle.State{S: 30, V: 20, D: 1.0})
	if out := m.Perceive(wLeft); out.DesiredCurvature >= 0 {
		t.Errorf("left offset should give negative curvature, got %v", out.DesiredCurvature)
	}
	// Offset to the right: steer left.
	wRight := buildWorld(t, vehicle.State{S: 30, V: 20, D: -1.0})
	if out := m.Perceive(wRight); out.DesiredCurvature <= 0 {
		t.Errorf("right offset should give positive curvature, got %v", out.DesiredCurvature)
	}
	// Centered: nearly zero.
	wMid := buildWorld(t, vehicle.State{S: 30, V: 20})
	if out := m.Perceive(wMid); math.Abs(out.DesiredCurvature) > 1e-6 {
		t.Errorf("centered curvature = %v", out.DesiredCurvature)
	}
}

func TestOnPatch(t *testing.T) {
	m, _ := New(noiseless(), 1)
	w := buildWorld(t, vehicle.State{S: 205, V: 20})
	if out := m.Perceive(w); !out.OnPatch {
		t.Error("expected OnPatch at s=205")
	}
	w2 := buildWorld(t, vehicle.State{S: 100, V: 20})
	if out := m.Perceive(w2); out.OnPatch {
		t.Error("unexpected OnPatch at s=100")
	}
}

func TestLatencyDelaysCameraOutputs(t *testing.T) {
	cfg := noiseless()
	cfg.LatencySteps = 10
	m, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := buildWorld(t, vehicle.State{S: 30, V: 20}, vehicle.State{S: 90, V: 10})
	first := m.Perceive(w)
	// Move the world forward; perception should still return stale data
	// for LatencySteps frames.
	for i := 0; i < 9; i++ {
		w.Step(vehicle.Command{})
		out := m.Perceive(w)
		if out.LeadDistance != first.LeadDistance {
			t.Fatalf("frame %d should still be the first frame", i)
		}
	}
	w.Step(vehicle.Command{})
	out := m.Perceive(w)
	if out.LeadDistance == first.LeadDistance {
		t.Error("after latency window the output should advance")
	}
	// Ego speed bypasses the latency.
	if out.EgoSpeed != w.Ego().State().V {
		t.Errorf("ego speed should be current: %v vs %v", out.EgoSpeed, w.Ego().State().V)
	}
}

func TestDeterminismAcrossSeeds(t *testing.T) {
	w1 := buildWorld(t, vehicle.State{S: 30, V: 20}, vehicle.State{S: 90, V: 12})
	w2 := buildWorld(t, vehicle.State{S: 30, V: 20}, vehicle.State{S: 90, V: 12})
	m1, _ := New(DefaultConfig(), 77)
	m2, _ := New(DefaultConfig(), 77)
	o1 := m1.Perceive(w1)
	o2 := m2.Perceive(w2)
	if o1 != o2 {
		t.Error("same seed should produce identical outputs")
	}
	m3, _ := New(DefaultConfig(), 78)
	if o3 := m3.Perceive(w1); o3 == o1 {
		t.Error("different seed should produce different noise")
	}
}

func TestCutInDetection(t *testing.T) {
	m, _ := New(noiseless(), 1)
	// A vehicle one lane left, ahead, heading right (toward ego lane).
	w := buildWorld(t, vehicle.State{S: 30, V: 15},
		vehicle.State{S: 60, D: 3.5, V: 15, Psi: -0.05})
	if out := m.Perceive(w); !out.CutInDetected {
		t.Error("expected cut-in detection")
	}
	// Same vehicle heading straight: no cut-in.
	w2 := buildWorld(t, vehicle.State{S: 30, V: 15},
		vehicle.State{S: 60, D: 3.5, V: 15})
	if out := m.Perceive(w2); out.CutInDetected {
		t.Error("straight neighbour should not be a cut-in")
	}
}
