// Package panda replicates the firmware safety checking that OpenPilot
// performs on output control commands through the PANDA CAN interface
// device. Since PANDA is unavailable in simulation, the paper implements
// (and this package reproduces) a software constraint checker that blocks
// control commands outside a predefined safe range, with acceleration
// bounds of +2.0 / -3.5 m/s^2 per the PANDA sources and ISO 22179.
package panda

import (
	"fmt"

	"adasim/internal/units"
	"adasim/internal/vehicle"
)

// Limits are the firmware safety bounds.
type Limits struct {
	// MaxAccel / MaxDecel bound longitudinal acceleration commands
	// (m/s^2; MaxDecel is positive and applied as a lower bound of
	// -MaxDecel).
	MaxAccel float64
	MaxDecel float64
	// MaxCurvature bounds the commanded path curvature (1/m),
	// standing in for PANDA's steering torque limit.
	MaxCurvature float64
	// MaxCurvatureRate bounds the commanded curvature slew (1/m per
	// second), standing in for PANDA's torque rate limit.
	MaxCurvatureRate float64
}

// DefaultLimits returns the ISO 22179 / PANDA bounds used by the paper.
func DefaultLimits() Limits {
	return Limits{
		MaxAccel:         2.0,
		MaxDecel:         3.5,
		MaxCurvature:     0.2,
		MaxCurvatureRate: 0.05,
	}
}

// Validate reports whether the limits are usable.
func (l Limits) Validate() error {
	if !(l.MaxAccel > 0) || !(l.MaxDecel > 0) {
		return fmt.Errorf("panda: accel limits must be positive: %+v", l)
	}
	if !(l.MaxCurvature > 0) || !(l.MaxCurvatureRate > 0) {
		return fmt.Errorf("panda: curvature limits must be positive: %+v", l)
	}
	return nil
}

// Checker is a stateful firmware safety checker.
type Checker struct {
	limits    Limits
	lastKappa float64
	blocked   int
}

// New constructs a Checker.
func New(limits Limits) (*Checker, error) {
	if err := limits.Validate(); err != nil {
		return nil, err
	}
	return &Checker{limits: limits}, nil
}

// Limits returns the configured bounds.
func (c *Checker) Limits() Limits { return c.limits }

// Blocked returns how many commands have been modified or blocked so far.
func (c *Checker) Blocked() int { return c.blocked }

// Check filters one command. Out-of-range values are clamped to the safe
// range (the firmware blocks the unsafe message; the actuator holds the
// nearest safe value). dt is the control period used for the rate limit.
// The second return value reports whether the command was modified.
func (c *Checker) Check(cmd vehicle.Command, dt float64) (vehicle.Command, bool) {
	safe := cmd
	safe.Accel = units.Clamp(cmd.Accel, -c.limits.MaxDecel, c.limits.MaxAccel)
	safe.Curvature = units.Clamp(cmd.Curvature, -c.limits.MaxCurvature, c.limits.MaxCurvature)
	if dt > 0 {
		maxStep := c.limits.MaxCurvatureRate * dt
		safe.Curvature = units.Clamp(safe.Curvature, c.lastKappa-maxStep, c.lastKappa+maxStep)
	}
	c.lastKappa = safe.Curvature
	modified := safe != cmd
	if modified {
		c.blocked++
	}
	return safe, modified
}

// Reset clears the rate-limit memory and counters.
func (c *Checker) Reset() {
	c.lastKappa = 0
	c.blocked = 0
}
