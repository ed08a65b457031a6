package vehicle

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"adasim/internal/units"
)

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	tests := []struct {
		name string
		mod  func(*Params)
	}{
		{"zero length", func(p *Params) { p.Length = 0 }},
		{"zero width", func(p *Params) { p.Width = 0 }},
		{"wheelbase too long", func(p *Params) { p.Wheelbase = p.Length + 1 }},
		{"zero accel", func(p *Params) { p.MaxAccel = 0 }},
		{"zero brake", func(p *Params) { p.MaxBrake = 0 }},
		{"bad steer", func(p *Params) { p.MaxSteer = 0 }},
		{"huge steer", func(p *Params) { p.MaxSteer = math.Pi }},
		{"negative tau", func(p *Params) { p.ActuatorTau = -1 }},
		{"NaN length", func(p *Params) { p.Length = math.NaN() }},
		{"NaN wheelbase", func(p *Params) { p.Wheelbase = math.NaN() }},
		{"NaN brake", func(p *Params) { p.MaxBrake = math.NaN() }},
		{"NaN steer", func(p *Params) { p.MaxSteer = math.NaN() }},
		{"NaN tau", func(p *Params) { p.ActuatorTau = math.NaN() }},
	}
	for _, tt := range tests {
		p := DefaultParams()
		tt.mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

func TestMaxCurvature(t *testing.T) {
	p := DefaultParams()
	want := math.Tan(p.MaxSteer) / p.Wheelbase
	if got := p.MaxCurvature(); !almostEq(got, want, 1e-12) {
		t.Errorf("MaxCurvature = %v, want %v", got, want)
	}
}

func TestNewRejectsNegativeSpeed(t *testing.T) {
	if _, err := New(DefaultParams(), State{V: -1}); err == nil {
		t.Error("negative speed should fail")
	}
}

func TestStepZeroDT(t *testing.T) {
	d, err := New(DefaultParams(), State{V: 10})
	if err != nil {
		t.Fatal(err)
	}
	before := d.State()
	after := d.Step(Command{Accel: 5}, StepInput{DT: 0})
	if before != after {
		t.Error("zero dt should not change state")
	}
}

func TestStraightLineIntegration(t *testing.T) {
	p := DefaultParams()
	p.ActuatorTau = 0 // no lag for exact integration
	d, err := New(p, State{V: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		d.Step(Command{}, StepInput{DT: 0.01, Friction: 0.9})
	}
	st := d.State()
	if !almostEq(st.S, 200, 0.5) {
		t.Errorf("travelled %v, want ~200", st.S)
	}
	if !almostEq(st.V, 20, 1e-9) {
		t.Errorf("speed drifted to %v", st.V)
	}
	if !almostEq(st.D, 0, 1e-9) {
		t.Errorf("lateral drift %v", st.D)
	}
}

func TestSpeedNeverNegative(t *testing.T) {
	d, err := New(DefaultParams(), State{V: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		st := d.Step(Command{Accel: -9.8}, StepInput{DT: 0.01, Friction: 0.9})
		if st.V < 0 {
			t.Fatalf("negative speed %v at step %d", st.V, i)
		}
	}
	if d.State().V != 0 {
		t.Errorf("should have stopped, v = %v", d.State().V)
	}
}

func TestFrictionLimitsBraking(t *testing.T) {
	p := DefaultParams()
	p.ActuatorTau = 0
	d, err := New(p, State{V: 30})
	if err != nil {
		t.Fatal(err)
	}
	mu := 0.3
	st := d.Step(Command{Accel: -9.8}, StepInput{DT: 0.01, Friction: mu})
	if st.Accel < -mu*units.Gravity-1e-9 {
		t.Errorf("deceleration %v exceeds friction limit %v", st.Accel, -mu*units.Gravity)
	}
}

func TestFrictionLimitsCurvature(t *testing.T) {
	p := DefaultParams()
	p.ActuatorTau = 0
	v := 30.0
	d, err := New(p, State{V: v})
	if err != nil {
		t.Fatal(err)
	}
	mu := 0.5
	st := d.Step(Command{Curvature: 0.2}, StepInput{DT: 0.01, Friction: mu})
	maxKappa := mu * units.Gravity / (v * v)
	if st.Kappa > maxKappa+1e-9 {
		t.Errorf("curvature %v exceeds friction limit %v", st.Kappa, maxKappa)
	}
}

func TestActuatorLagConverges(t *testing.T) {
	d, err := New(DefaultParams(), State{V: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // 2 s >> tau
		d.Step(Command{Accel: 1.5}, StepInput{DT: 0.01, Friction: 0.9})
	}
	if !almostEq(d.State().Accel, 1.5, 0.01) {
		t.Errorf("accel = %v, want ~1.5", d.State().Accel)
	}
}

func TestLateralDynamicsTurnsLeft(t *testing.T) {
	p := DefaultParams()
	p.ActuatorTau = 0
	d, err := New(p, State{V: 15})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		d.Step(Command{Curvature: 0.01}, StepInput{DT: 0.01, Friction: 0.9})
	}
	if d.State().D <= 0 {
		t.Errorf("positive curvature should move left, D = %v", d.State().D)
	}
	if d.State().Psi <= 0 {
		t.Errorf("heading should rotate left, Psi = %v", d.State().Psi)
	}
}

func TestPhysicalInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func() bool {
		d, err := New(DefaultParams(), State{V: rng.Float64() * 35})
		if err != nil {
			return false
		}
		mu := 0.2 + rng.Float64()*0.7
		for i := 0; i < 100; i++ {
			cmd := Command{
				Accel:     (rng.Float64()*2 - 1) * 15,
				Curvature: (rng.Float64()*2 - 1) * 0.5,
			}
			st := d.Step(cmd, StepInput{DT: 0.01, Friction: mu})
			if st.V < 0 || math.IsNaN(st.V) || math.IsNaN(st.S) || math.IsNaN(st.D) {
				return false
			}
			if st.Accel < -mu*units.Gravity-1e-6 || st.Accel > DefaultParams().MaxAccel+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStoppingDistance(t *testing.T) {
	if got := StoppingDistance(20, 5); !almostEq(got, 40, 1e-12) {
		t.Errorf("StoppingDistance(20,5) = %v", got)
	}
	if !math.IsInf(StoppingDistance(20, 0), 1) {
		t.Error("zero decel should be infinite")
	}
	if !math.IsInf(StoppingDistance(20, -3), 1) {
		t.Error("negative decel should be infinite")
	}
}

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// TestStepCachesBitIdentical: the per-state sine/cosine and the
// actuator-lag factor cached on the step size give the same bits as a
// fresh Dynamics started from the same state, including after the step
// size changes and after SetState.
func TestStepCachesBitIdentical(t *testing.T) {
	p := DefaultParams()
	cmd := Command{Accel: 1.3, Curvature: 0.004}
	in := StepInput{DT: 0.01, RoadCurvature: 1 / 450., Friction: 0.9}
	d, err := New(p, State{S: 10, D: 0.3, Psi: 0.02, V: 20})
	if err != nil {
		t.Fatal(err)
	}
	revs := d.Revision()
	for i, dt := range []float64{0.01, 0.01, 0.02, 0.005, 0.01} {
		fresh, err := New(p, d.State())
		if err != nil {
			t.Fatal(err)
		}
		in.DT = dt
		got, want := d.Step(cmd, in), fresh.Step(cmd, in)
		if got != want {
			t.Fatalf("step %d (dt %v): cached %+v, fresh %+v", i, dt, got, want)
		}
		if d.SinPsi() != math.Sin(got.Psi) {
			t.Fatalf("step %d: SinPsi %v, want sin(%v) = %v", i, d.SinPsi(), got.Psi, math.Sin(got.Psi))
		}
		if d.Revision() == revs {
			t.Fatalf("step %d: Revision did not change", i)
		}
		revs = d.Revision()
	}
	st := d.State()
	st.Psi = -0.3
	d.SetState(st)
	if d.SinPsi() != math.Sin(-0.3) || d.Revision() == revs {
		t.Errorf("SetState: SinPsi %v (want %v), revision %d (was %d)", d.SinPsi(), math.Sin(-0.3), d.Revision(), revs)
	}
}

// wrapAngleLoop is wrapAngle as it was before huge headings were
// reduced: the reference every in-range heading must match bit for bit.
func wrapAngleLoop(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// wrapAngleWithin runs wrapAngle(a) under a deadline, so that a
// heading the wrap cannot reduce fails the test instead of hanging it.
func wrapAngleWithin(t *testing.T, a float64) float64 {
	t.Helper()
	got := make(chan float64, 1)
	go func() { got <- wrapAngle(a) }()
	select {
	case r := <-got:
		return r
	case <-time.After(2 * time.Second):
		t.Fatalf("wrapAngle(%g) did not return", a)
		return 0
	}
}

// TestWrapAngle pins the heading wrap: huge and infinite headings
// return (a finite heading into (-π, π], ±Inf as NaN) instead of
// looping forever, and every heading in (-3π, 3π] wraps bit-equal to
// the stepping loop, so no recorded outcome moves.
func TestWrapAngle(t *testing.T) {
	for _, a := range []float64{1e308, -1e308, 1e17, 3*math.Pi + 1e-9, -3*math.Pi - 1e-9} {
		r := wrapAngleWithin(t, a)
		if math.IsNaN(r) || r <= -math.Pi || r > math.Pi {
			t.Errorf("wrapAngle(%g) = %g, want a heading in (-π, π]", a, r)
		}
	}
	for _, a := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if r := wrapAngleWithin(t, a); !math.IsNaN(r) {
			t.Errorf("wrapAngle(%g) = %g, want NaN", a, r)
		}
	}
	sweep := []float64{-math.Pi, math.Pi, 3 * math.Pi, math.Nextafter(-3*math.Pi, 0), 0, -0.0}
	const n = 20000
	for i := 1; i <= n; i++ {
		sweep = append(sweep, -3*math.Pi+6*math.Pi*float64(i)/n)
	}
	for _, a := range sweep {
		if got, want := wrapAngleWithin(t, a), wrapAngleLoop(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("wrapAngle(%v) = %v, stepping loop gives %v", a, got, want)
		}
	}
}
