// Package openpilot re-implements the closed-loop behaviour of the
// OpenPilot v0.9.7 ADAS control software evaluated by the paper: adaptive
// cruise control (ACC) in the longitudinal direction and automatic lane
// centering (ALC) in the lateral direction, fed exclusively by perception
// outputs.
//
// The controller is deliberately tuned to reproduce the paper's benign
// observations (Observation 1): it keeps a ~2 s following gap during a
// stable cruise, brakes late and hard when closing on a lead vehicle, and
// centres the lane imperfectly during high-speed turns.
package openpilot

import (
	"fmt"
	"math"

	"adasim/internal/perception"
	"adasim/internal/units"
	"adasim/internal/vehicle"
)

// EngageState is the cruise state machine state.
type EngageState int

// Cruise states.
const (
	// Disengaged: the ADAS issues no commands.
	Disengaged EngageState = iota + 1
	// Engaged: ACC and ALC are active.
	Engaged
	// Overridden: a human intervention is controlling the vehicle; ADAS
	// outputs are computed but not applied.
	Overridden
)

// String returns the state name.
func (s EngageState) String() string {
	switch s {
	case Disengaged:
		return "disengaged"
	case Engaged:
		return "engaged"
	case Overridden:
		return "overridden"
	default:
		return "unknown"
	}
}

// Config tunes the controller.
type Config struct {
	// SetSpeed is the cruise set speed (m/s). Default 50 mph.
	SetSpeed float64
	// GapTime is the desired time headway to a lead vehicle (s).
	GapTime float64
	// MinGap is the desired standstill gap (m).
	MinGap float64
	// CruiseKp is the proportional gain of the speed controller.
	CruiseKp float64
	// FollowKGap and FollowKRel are the gap-error and relative-speed
	// gains of the following controller. Small FollowKGap produces the
	// late-braking behaviour the paper observes.
	FollowKGap float64
	FollowKRel float64
	// AccelLimit / BrakeLimit bound the planner's commanded acceleration
	// (m/s^2, BrakeLimit positive). OpenPilot commands strong braking in
	// emergencies; PANDA-style range checking is a separate intervention.
	AccelLimit float64
	BrakeLimit float64
	// CurvatureRate limits the slew of the commanded curvature (1/m/s).
	CurvatureRate float64
	// SteerKp scales how aggressively ALC tracks the desired curvature.
	SteerKp float64
	// EngageTTC is the time-to-collision horizon (s) below which the
	// planner starts reacting to a lead even when the gap is still wide.
	EngageTTC float64
	// BrakeJerk limits how fast the commanded deceleration can grow
	// (m/s^3): OpenPilot's comfort jerk limiting, which is also what
	// leaves the ego without enough braking distance when the lead
	// brakes abruptly (the paper's S4 collisions).
	BrakeJerk float64
}

// DefaultConfig returns the tuning used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		SetSpeed:      units.MPHToMS(50),
		GapTime:       1.8,
		MinGap:        4.0,
		CruiseKp:      0.4,
		FollowKGap:    0.06,
		FollowKRel:    0.55,
		AccelLimit:    2.0,
		BrakeLimit:    9.0,
		CurvatureRate: 0.02,
		SteerKp:       1.0,
		EngageTTC:     6.0,
		BrakeJerk:     4.0,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.SetSpeed <= 0:
		return fmt.Errorf("openpilot: SetSpeed %v must be positive", c.SetSpeed)
	case c.GapTime <= 0 || c.MinGap < 0:
		return fmt.Errorf("openpilot: gap parameters must be positive")
	case c.AccelLimit <= 0 || c.BrakeLimit <= 0:
		return fmt.Errorf("openpilot: accel/brake limits must be positive")
	case c.CurvatureRate <= 0:
		return fmt.Errorf("openpilot: CurvatureRate must be positive")
	case c.EngageTTC < 0:
		return fmt.Errorf("openpilot: EngageTTC must be non-negative")
	case c.BrakeJerk < 0:
		return fmt.Errorf("openpilot: BrakeJerk must be non-negative")
	}
	return nil
}

// Controller is the ADAS control software instance for one vehicle.
type Controller struct {
	cfg      Config
	state    EngageState
	curKappa float64 // current commanded curvature (slew-limited)
	curAccel float64 // current commanded acceleration (jerk-limited)
}

// New constructs an engaged controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, state: Engaged}, nil
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// State returns the cruise state.
func (c *Controller) State() EngageState { return c.state }

// SetState transitions the cruise state machine.
func (c *Controller) SetState(s EngageState) { c.state = s }

// DesiredGap returns the desired following distance at ego speed v.
func (c *Controller) DesiredGap(v float64) float64 {
	return c.cfg.MinGap + c.cfg.GapTime*v
}

// Update computes one control step from a perception frame. dt is the
// control period in seconds. When the controller is not Engaged the
// returned command holds zero acceleration and the last curvature.
func (c *Controller) Update(out perception.Output, dt float64) vehicle.Command {
	accel := c.longitudinal(out)
	// Comfort jerk limiting: deceleration demand grows at most BrakeJerk
	// per second; releasing the brake is immediate.
	if c.cfg.BrakeJerk > 0 && accel < c.curAccel {
		accel = max(accel, c.curAccel-c.cfg.BrakeJerk*dt)
	}
	c.curAccel = accel
	kappa := c.lateral(out, dt)
	if c.state != Engaged {
		return vehicle.Command{Accel: 0, Curvature: c.curKappa}
	}
	return vehicle.Command{Accel: accel, Curvature: kappa}
}

// longitudinal implements the ACC planner: cruise to the set speed, yield
// to the following controller when a lead is detected, and add a
// constant-deceleration emergency term that fires only at short range —
// the source of the paper's "aggressive braking" observation.
func (c *Controller) longitudinal(out perception.Output) float64 {
	accel := units.Clamp(c.cfg.CruiseKp*(c.cfg.SetSpeed-out.EgoSpeed),
		-1.5, c.cfg.AccelLimit)

	if out.LeadValid {
		gap := out.LeadDistance
		rel := out.RelSpeed() // positive when closing
		desired := c.DesiredGap(out.EgoSpeed)
		ttc := math.Inf(1)
		if rel > 0 {
			ttc = gap / rel
		}
		// OpenPilot reacts to the lead only once it is close in time or
		// distance; until then the ego keeps cruising at the set speed.
		// This lateness is the source of the paper's "aggressive braking
		// when approaching the lead vehicle" observation.
		if gap < 1.3*desired || ttc < c.cfg.EngageTTC {
			follow := c.cfg.FollowKGap*(gap-desired) - c.cfg.FollowKRel*rel
			if follow < accel {
				accel = follow
			}
			// Emergency braking: the deceleration needed to match the
			// lead's speed just before the minimum gap, applied only when
			// it is already substantial.
			if rel > 0 {
				margin := max(gap-c.cfg.MinGap, 0.5)
				required := -rel * rel / (2 * margin)
				if required < -2.0 && required < accel {
					accel = required
				}
			}
		}
	}
	return units.Clamp(accel, -c.cfg.BrakeLimit, c.cfg.AccelLimit)
}

// lateral implements ALC: slew-limited tracking of the perception model's
// desired curvature.
func (c *Controller) lateral(out perception.Output, dt float64) float64 {
	target := c.cfg.SteerKp * out.DesiredCurvature
	maxStep := c.cfg.CurvatureRate * dt
	c.curKappa += units.Clamp(target-c.curKappa, -maxStep, maxStep)
	return c.curKappa
}

// LastCurvature returns the most recent commanded curvature.
func (c *Controller) LastCurvature() float64 { return c.curKappa }
