package panda

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adasim/internal/vehicle"
)

func newChecker(t *testing.T) *Checker {
	t.Helper()
	c, err := New(DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLimitsValidate(t *testing.T) {
	if err := DefaultLimits().Validate(); err != nil {
		t.Fatalf("default limits invalid: %v", err)
	}
	bad := []func(*Limits){
		func(l *Limits) { l.MaxAccel = 0 },
		func(l *Limits) { l.MaxDecel = -1 },
		func(l *Limits) { l.MaxCurvature = 0 },
		func(l *Limits) { l.MaxCurvatureRate = 0 },
		func(l *Limits) { l.MaxAccel = math.NaN() },
		func(l *Limits) { l.MaxDecel = math.NaN() },
		func(l *Limits) { l.MaxCurvature = math.NaN() },
		func(l *Limits) { l.MaxCurvatureRate = math.NaN() },
	}
	for i, mod := range bad {
		l := DefaultLimits()
		mod(&l)
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestISO22179Bounds(t *testing.T) {
	// The paper/PANDA bounds: accel within [-3.5, +2.0] m/s^2.
	l := DefaultLimits()
	if l.MaxAccel != 2.0 || l.MaxDecel != 3.5 {
		t.Errorf("bounds = +%v/-%v, want +2.0/-3.5", l.MaxAccel, l.MaxDecel)
	}
}

func TestClampAccel(t *testing.T) {
	c := newChecker(t)
	out, modified := c.Check(vehicle.Command{Accel: -9}, 0.01)
	if !modified || out.Accel != -3.5 {
		t.Errorf("hard braking should clamp to -3.5, got %v (mod=%v)", out.Accel, modified)
	}
	c2 := newChecker(t)
	out, modified = c2.Check(vehicle.Command{Accel: 5}, 0.01)
	if !modified || out.Accel != 2.0 {
		t.Errorf("hard accel should clamp to 2.0, got %v", out.Accel)
	}
	c3 := newChecker(t)
	out, modified = c3.Check(vehicle.Command{Accel: 1.0}, 0.01)
	if modified || out.Accel != 1.0 {
		t.Errorf("in-range command should pass unchanged, got %v (mod=%v)", out.Accel, modified)
	}
}

func TestCurvatureRateLimit(t *testing.T) {
	c := newChecker(t)
	dt := 0.01
	out, _ := c.Check(vehicle.Command{Curvature: 0.1}, dt)
	maxStep := DefaultLimits().MaxCurvatureRate * dt
	if out.Curvature > maxStep+1e-12 {
		t.Errorf("first-step curvature %v exceeds rate limit %v", out.Curvature, maxStep)
	}
	prev := out.Curvature
	for i := 0; i < 50; i++ {
		out, _ = c.Check(vehicle.Command{Curvature: 0.1}, dt)
		if out.Curvature-prev > maxStep+1e-12 {
			t.Fatalf("rate limit violated at step %d", i)
		}
		prev = out.Curvature
	}
}

func TestBlockedCounter(t *testing.T) {
	c := newChecker(t)
	c.Check(vehicle.Command{Accel: -9}, 0.01)
	c.Check(vehicle.Command{Accel: 0}, 0.01)
	c.Check(vehicle.Command{Accel: 7}, 0.01)
	if got := c.Blocked(); got != 2 {
		t.Errorf("Blocked = %d, want 2", got)
	}
	c.Reset()
	if c.Blocked() != 0 {
		t.Error("Reset should clear counter")
	}
}

func TestOutputAlwaysWithinLimitsProperty(t *testing.T) {
	c := newChecker(t)
	l := DefaultLimits()
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		cmd := vehicle.Command{
			Accel:     (rng.Float64()*2 - 1) * 20,
			Curvature: (rng.Float64()*2 - 1) * 1,
		}
		out, _ := c.Check(cmd, 0.01)
		return out.Accel >= -l.MaxDecel-1e-9 && out.Accel <= l.MaxAccel+1e-9 &&
			math.Abs(out.Curvature) <= l.MaxCurvature+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCheckIdempotentOnSafeCommands(t *testing.T) {
	c := newChecker(t)
	cmd := vehicle.Command{Accel: 1.2, Curvature: 0.0001}
	out, modified := c.Check(cmd, 0.01)
	if modified {
		t.Errorf("safe command modified: %+v -> %+v", cmd, out)
	}
	out2, modified2 := c.Check(out, 0.01)
	if modified2 || out2 != out {
		t.Error("checking a checked command should be a no-op")
	}
}
