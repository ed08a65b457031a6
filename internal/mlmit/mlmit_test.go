package mlmit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adasim/internal/nn"
	"adasim/internal/vehicle"
)

func tinyNet(t *testing.T) *nn.Network {
	t.Helper()
	net, err := nn.NewNetwork(FeatureDim, []int{4}, OutputDim, 1)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{Threshold: 0, Bias: 1}).Validate(); err == nil {
		t.Error("zero threshold should fail")
	}
	if err := (Config{Threshold: 1, Bias: 0}).Validate(); err == nil {
		t.Error("zero bias should fail")
	}
	if err := (Config{Threshold: math.NaN(), Bias: 1}).Validate(); err == nil {
		t.Error("NaN threshold should fail")
	}
	if err := (Config{Threshold: 1, Bias: math.NaN()}).Validate(); err == nil {
		t.Error("NaN bias should fail")
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("nil network should fail")
	}
}

func TestFrameVectorScaling(t *testing.T) {
	f := Frame{
		EgoSpeed:      30,
		LeadDistance:  80,
		LaneLineLeft:  2,
		LaneLineRight: 2,
		PrevAccel:     4,
		PrevCurvature: 0.05,
	}
	v := f.Vector()
	if len(v) != FeatureDim {
		t.Fatalf("dim = %d", len(v))
	}
	for i, x := range v {
		if math.Abs(x-1) > 1e-12 {
			t.Errorf("feature %d = %v, want 1 (full-scale)", i, x)
		}
	}
}

func TestTargetScaleRoundTrip(t *testing.T) {
	f := func(a, k float64) bool {
		if math.IsNaN(a) || math.IsNaN(k) || math.Abs(a) > 100 || math.Abs(k) > 1 {
			return true
		}
		cmd := vehicle.Command{Accel: a, Curvature: k}
		back := UnscaleOutput(ScaleTarget(cmd))
		return math.Abs(back.Accel-a) < 1e-9 && math.Abs(back.Curvature-k) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWarmupPassesThrough(t *testing.T) {
	m, err := New(DefaultConfig(), tinyNet(t))
	if err != nil {
		t.Fatal(err)
	}
	yOP := vehicle.Command{Accel: 1.2, Curvature: 0.001}
	for i := 0; i < HistorySteps-1; i++ {
		got, active := m.Update(float64(i)*0.01, Frame{EgoSpeed: 20}, yOP)
		if active || got != yOP {
			t.Fatalf("step %d: warmup should pass through", i)
		}
	}
}

func TestCUSUMNonNegativeProperty(t *testing.T) {
	m, err := New(DefaultConfig(), tinyNet(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		frame := Frame{
			EgoSpeed:      rng.Float64() * 30,
			LeadDistance:  rng.Float64() * 80,
			LaneLineLeft:  rng.Float64() * 2,
			LaneLineRight: rng.Float64() * 2,
			PrevAccel:     rng.NormFloat64(),
			PrevCurvature: rng.NormFloat64() * 0.01,
		}
		yOP := vehicle.Command{Accel: rng.NormFloat64() * 3, Curvature: rng.NormFloat64() * 0.01}
		m.Update(float64(i)*0.01, frame, yOP)
		if m.S() < 0 {
			t.Fatalf("S went negative: %v", m.S())
		}
	}
}

func TestRecoveryActivatesOnPersistentDiscrepancy(t *testing.T) {
	// An untrained network's prediction will differ wildly from a large
	// constant controller output, so the CUSUM must eventually trip.
	m, err := New(Config{Threshold: 1.0, Bias: 0.1}, tinyNet(t))
	if err != nil {
		t.Fatal(err)
	}
	yOP := vehicle.Command{Accel: 4, Curvature: 0.05}
	frame := Frame{EgoSpeed: 20, LeadDistance: 10}
	activated := false
	for i := 0; i < 400; i++ {
		_, active := m.Update(float64(i)*0.01, frame, yOP)
		if active {
			activated = true
			break
		}
	}
	if !activated {
		t.Fatal("recovery never activated")
	}
	if m.FirstRecoveryAt() < 0 {
		t.Error("FirstRecoveryAt not recorded")
	}
	if m.RecoverySteps() == 0 {
		t.Error("RecoverySteps not counted")
	}
}

func TestRecoveryExecutesMLOutput(t *testing.T) {
	m, err := New(Config{Threshold: 0.5, Bias: 0.05}, tinyNet(t))
	if err != nil {
		t.Fatal(err)
	}
	yOP := vehicle.Command{Accel: 4, Curvature: 0.05}
	frame := Frame{EgoSpeed: 20, LeadDistance: 10}
	for i := 0; i < 400; i++ {
		got, active := m.Update(float64(i)*0.01, frame, yOP)
		if active {
			if got == yOP {
				t.Fatal("recovery should execute the ML output, not yOP")
			}
			return
		}
	}
	t.Fatal("never entered recovery")
}

func TestRecoveryExitsWhenAgreeing(t *testing.T) {
	m, err := New(Config{Threshold: 0.5, Bias: 0.1}, tinyNet(t))
	if err != nil {
		t.Fatal(err)
	}
	// Force into recovery with a large discrepancy.
	frame := Frame{EgoSpeed: 20, LeadDistance: 10}
	for i := 0; i < 400 && !m.InRecovery(); i++ {
		m.Update(float64(i)*0.01, frame, vehicle.Command{Accel: 4, Curvature: 0.05})
	}
	if !m.InRecovery() {
		t.Fatal("setup failed: not in recovery")
	}
	// Now feed a controller output identical to the ML prediction: the
	// discrepancy is zero, so recovery must exit and S reset. Every
	// history entry is the same constant frame, so the window the next
	// Update will predict over is 20 copies of its vector.
	seq := make([][]float64, HistorySteps)
	for i := range seq {
		seq[i] = frame.Vector()
	}
	yML := UnscaleOutput(m.net.Predict(seq))
	got, active := m.Update(10, frame, yML)
	if active || m.InRecovery() {
		t.Error("recovery should exit when outputs agree")
	}
	if m.S() != 0 {
		t.Errorf("S should reset, got %v", m.S())
	}
	if got != yML {
		t.Errorf("exit step should execute yOP (= yML here)")
	}
}

// varyingFrame returns a deterministic, step-dependent frame so history
// windows actually differ across steps.
func varyingFrame(i int) Frame {
	return Frame{
		EgoSpeed:      20 + math.Sin(float64(i)*0.1)*3,
		LeadDistance:  40 + math.Cos(float64(i)*0.07)*10,
		LaneLineLeft:  1.8 + math.Sin(float64(i)*0.03)*0.2,
		LaneLineRight: 1.8 - math.Sin(float64(i)*0.03)*0.2,
		PrevAccel:     math.Sin(float64(i) * 0.05),
		PrevCurvature: 0.01 * math.Cos(float64(i)*0.02),
	}
}

func TestResetMatchesFresh(t *testing.T) {
	net := tinyNet(t)
	cfg := Config{Threshold: 0.5, Bias: 0.1}
	reused, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the reused mitigator with one run's worth of state.
	for i := 0; i < 120; i++ {
		reused.Update(float64(i)*0.01, varyingFrame(i+31), vehicle.Command{Accel: 2})
	}
	if err := reused.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		fr := varyingFrame(i)
		yOP := vehicle.Command{Accel: 1.5, Curvature: 0.002}
		t1, a1 := fresh.Update(float64(i)*0.01, fr, yOP)
		t2, a2 := reused.Update(float64(i)*0.01, fr, yOP)
		if t1 != t2 || a1 != a2 {
			t.Fatalf("step %d: fresh (%v,%v) != reused (%v,%v)", i, t1, a1, t2, a2)
		}
		if fresh.S() != reused.S() {
			t.Fatalf("step %d: S fresh %v != reused %v", i, fresh.S(), reused.S())
		}
	}
}

func TestUpdateZeroAllocs(t *testing.T) {
	m, err := New(DefaultConfig(), tinyNet(t))
	if err != nil {
		t.Fatal(err)
	}
	yOP := vehicle.Command{Accel: 1}
	for i := 0; i < 2*HistorySteps; i++ { // warm up past the window fill
		m.Update(float64(i)*0.01, varyingFrame(i), yOP)
	}
	i := 2 * HistorySteps
	if allocs := testing.AllocsPerRun(200, func() {
		m.Update(float64(i)*0.01, varyingFrame(i), yOP)
		i++
	}); allocs != 0 {
		t.Errorf("Update allocs/op = %v, want 0", allocs)
	}
}
