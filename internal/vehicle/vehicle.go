// Package vehicle implements the vehicle dynamics substrate: physical
// parameters, friction-limited actuators with first-order lag, and a
// kinematic bicycle model integrated in the road's Frenet frame.
package vehicle

import (
	"fmt"
	"math"

	"adasim/internal/units"
)

// Params are the physical parameters of a passenger car. The defaults
// match a mid-size sedan (the comma.ai reference platform is a Honda
// Civic/Toyota Corolla class vehicle).
type Params struct {
	Length      float64 // bumper-to-bumper length (m)
	Width       float64 // body width (m)
	Wheelbase   float64 // axle distance (m)
	MaxAccel    float64 // engine-limited forward acceleration (m/s^2)
	MaxBrake    float64 // hardware brake authority at full pedal, dry road (m/s^2)
	MaxSteer    float64 // maximum road-wheel steering angle (rad)
	ActuatorTau float64 // first-order actuator lag time constant (s)
}

// DefaultParams returns the standard passenger-car parameters used across
// the experiments.
func DefaultParams() Params {
	return Params{
		Length:      4.9,
		Width:       1.85,
		Wheelbase:   2.7,
		MaxAccel:    3.0,
		MaxBrake:    9.8,
		MaxSteer:    units.DegToRad(30),
		ActuatorTau: 0.15,
	}
}

// Validate reports whether the parameters are physically plausible.
// Every bound is written so that NaN fails it.
func (p Params) Validate() error {
	switch {
	case !(p.Length > 0 && p.Width > 0 && p.Wheelbase > 0):
		return fmt.Errorf("vehicle: dimensions must be positive: %+v", p)
	case !(p.Wheelbase < p.Length):
		return fmt.Errorf("vehicle: wheelbase %v must be shorter than length %v", p.Wheelbase, p.Length)
	case !(p.MaxAccel > 0 && p.MaxBrake > 0):
		return fmt.Errorf("vehicle: accel/brake authority must be positive")
	case !(p.MaxSteer > 0 && p.MaxSteer <= math.Pi/2):
		return fmt.Errorf("vehicle: MaxSteer %v out of range", p.MaxSteer)
	case !(p.ActuatorTau >= 0):
		return fmt.Errorf("vehicle: ActuatorTau must be non-negative")
	}
	return nil
}

// MaxCurvature returns the largest path curvature the steering hardware
// can command, from the bicycle relation kappa = tan(delta)/L.
func (p Params) MaxCurvature() float64 {
	return math.Tan(p.MaxSteer) / p.Wheelbase
}

// Command is the actuator set-point applied for one control step.
type Command struct {
	Accel     float64 // desired longitudinal acceleration (m/s^2); negative brakes
	Curvature float64 // desired path curvature (1/m); positive turns left
}

// State is the vehicle state expressed in the road's Frenet frame.
type State struct {
	S     float64 // arc length along the road centreline (m)
	D     float64 // lateral offset from the reference-lane centre (m), +left
	Psi   float64 // heading relative to the road tangent (rad), +left
	V     float64 // forward speed (m/s), never negative
	Accel float64 // achieved longitudinal acceleration (m/s^2)
	Kappa float64 // achieved path curvature (1/m)
}

// StepInput carries the per-step environment context needed to integrate
// the dynamics.
type StepInput struct {
	DT            float64 // integration step (s)
	RoadCurvature float64 // road centreline curvature at the vehicle's S
	Friction      float64 // road/tyre friction coefficient
}

// Dynamics integrates a single vehicle. The zero value is not usable;
// construct with New.
type Dynamics struct {
	params   Params
	maxKappa float64 // params.MaxCurvature(); Params never change after New
	state    State
	// sinPsi and cosPsi are math.Sincos(state.Psi), taken once per state.
	sinPsi, cosPsi float64
	// lag is the actuator-lag factor 1-exp(-lagDT/ActuatorTau) of the
	// last step size lagDT.
	lagDT, lag float64
	rev        uint64 // counts state changes; see Revision
}

// New constructs vehicle dynamics with the given parameters and initial
// state.
func New(params Params, initial State) (*Dynamics, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if initial.V < 0 {
		return nil, fmt.Errorf("vehicle: initial speed %v must be non-negative", initial.V)
	}
	d := &Dynamics{params: params, maxKappa: params.MaxCurvature()}
	d.SetState(initial)
	return d, nil
}

// Params returns the vehicle parameters.
func (d *Dynamics) Params() Params { return d.params }

// State returns the current state.
func (d *Dynamics) State() State { return d.state }

// SinPsi returns math.Sin(State().Psi), computed once per state.
func (d *Dynamics) SinPsi() float64 { return d.sinPsi }

// Revision counts the state changes (Step, SetState) so far, so a cache
// derived from the state can tell when it went stale.
func (d *Dynamics) Revision() uint64 { return d.rev }

// SetState replaces the current state. Used by scripted actors.
func (d *Dynamics) SetState(s State) {
	d.state = s
	d.sinPsi, d.cosPsi = math.Sincos(s.Psi)
	d.rev++
}

// Step advances the state by in.DT under cmd, applying actuator lag and
// friction limits. It returns the new state.
//
// Friction limits model the tyre grip circle conservatively: longitudinal
// deceleration is capped at Friction*g, and the achievable path curvature
// at speed v is capped so lateral acceleration v^2*kappa stays within
// Friction*g. On low-friction surfaces this directly degrades both braking
// distance and steering authority, which is the mechanism behind the
// paper's Table VIII.
func (d *Dynamics) Step(cmd Command, in StepInput) State {
	if in.DT <= 0 {
		return d.state
	}
	mu := in.Friction
	if mu <= 0 {
		mu = 0.9
	}
	st := d.state

	// Actuator lag: first-order response toward the commanded values.
	if in.DT != d.lagDT {
		d.lagDT, d.lag = in.DT, 1
		if d.params.ActuatorTau > 0 {
			d.lag = 1 - math.Exp(-in.DT/d.params.ActuatorTau)
		}
	}
	alpha := d.lag
	st.Accel += alpha * (cmd.Accel - st.Accel)
	st.Kappa += alpha * (cmd.Curvature - st.Kappa)

	// Friction and hardware limits. The builtin min differs from
	// math.Min only for (-Inf, NaN), and no operand here can be -Inf.
	maxBrake := min(d.params.MaxBrake, mu*units.Gravity)
	st.Accel = units.Clamp(st.Accel, -maxBrake, d.params.MaxAccel)
	kapLimit := d.maxKappa
	if st.V > 1 {
		kapLimit = min(kapLimit, mu*units.Gravity/(st.V*st.V))
	}
	st.Kappa = units.Clamp(st.Kappa, -kapLimit, kapLimit)

	// Longitudinal integration; speed never goes negative.
	v0 := st.V
	st.V = max(0, st.V+st.Accel*in.DT)
	vMid := (v0 + st.V) / 2

	// Frenet kinematics.
	denom := 1 - st.D*in.RoadCurvature
	if denom < 0.2 {
		denom = 0.2 // guard against degenerate geometry far off the road
	}
	sDot := vMid * d.cosPsi / denom
	st.S += sDot * in.DT
	st.D += vMid * d.sinPsi * in.DT
	st.Psi += (vMid*st.Kappa - in.RoadCurvature*sDot) * in.DT
	st.Psi = wrapAngle(st.Psi)

	d.SetState(st)
	return st
}

func wrapAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// StoppingDistance returns the distance needed to stop from speed v at
// constant deceleration a (positive), a convenience used by the AEBS and
// driver models.
func StoppingDistance(v, a float64) float64 {
	if a <= 0 {
		return math.Inf(1)
	}
	return v * v / (2 * a)
}
