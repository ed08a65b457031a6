// Package driver implements the rule-based human-driver reaction simulator
// of the paper (Section III-C, Table II). The driver observes the real
// world (not the possibly-compromised camera pipeline), notices hazardous
// conditions, and intervenes after a configurable reaction time with an
// emergency brake or a steer back to the lane centre.
package driver

import (
	"fmt"
	"math"
	"math/rand"

	"adasim/internal/units"
)

// DefaultReactionTime is the average human reaction time assumed by the
// paper (s).
const DefaultReactionTime = 2.5

// Condition identifies which Table II activation condition fired.
type Condition int

// Table II activation conditions.
const (
	CondNone Condition = iota
	CondFCW
	CondUnsafeCruiseSpeed
	CondUnexpectedAccel
	CondUnsafeFollowingDistance
	CondCutIn
	CondLaneDepartureWarning
	CondUnsafeLaneDistance
)

// String returns the condition name.
func (c Condition) String() string {
	switch c {
	case CondNone:
		return "none"
	case CondFCW:
		return "fcw-alert"
	case CondUnsafeCruiseSpeed:
		return "unsafe-cruise-speed"
	case CondUnexpectedAccel:
		return "unexpected-acceleration"
	case CondUnsafeFollowingDistance:
		return "unsafe-following-distance"
	case CondCutIn:
		return "cut-in"
	case CondLaneDepartureWarning:
		return "lane-departure-warning"
	case CondUnsafeLaneDistance:
		return "unsafe-lane-distance"
	default:
		return "unknown"
	}
}

// IsBrakeCondition reports whether the condition triggers the emergency
// brake reaction (vs the steering reaction).
func (c Condition) IsBrakeCondition() bool {
	switch c {
	case CondFCW, CondUnsafeCruiseSpeed, CondUnexpectedAccel,
		CondUnsafeFollowingDistance, CondCutIn:
		return true
	default:
		return false
	}
}

// Observation is the driver's ground-truth view of one simulation step.
type Observation struct {
	T          float64 // simulation time (s)
	EgoSpeed   float64 // m/s
	EgoAccel   float64 // achieved longitudinal acceleration (m/s^2)
	SpeedLimit float64 // posted limit (m/s)

	LeadValid bool    // a lead vehicle is visible ahead in lane
	LeadGap   float64 // true bumper-to-bumper gap (m)
	LeadSpeed float64 // true lead speed (m/s)

	LaneLineLeft  float64 // true distance to left lane line (m)
	LaneLineRight float64 // true distance to right lane line (m)
	LaneOffset    float64 // lateral offset from own lane centre (m, +left)
	Psi           float64 // heading error relative to road tangent (rad)
	SinPsi        float64 // math.Sin(Psi)
	RoadCurvature float64 // road curvature at the ego position (1/m)

	FCW   bool // forward collision warning currently sounding
	CutIn bool // a vehicle is cutting into the ego lane
}

// Config tunes the driver model.
type Config struct {
	// ReactionTime is the delay between a condition first holding and
	// the intervention starting (s).
	ReactionTime float64
	// VehicleLength defines the "unsafe following distance" threshold
	// (m): gap below one vehicle length.
	VehicleLength float64
	// SpeedTolerance is the fraction above the limit considered unsafe
	// cruising (0.10 per the paper's DMV guidance).
	SpeedTolerance float64
	// UnexpectedAccel is the acceleration (m/s^2) considered unexpected
	// when the ego is already close to a lead vehicle.
	UnexpectedAccel float64
	// UnexpectedAccelGapFactor sets how close (in vehicle lengths) the
	// lead must be for acceleration to alarm the driver.
	UnexpectedAccelGapFactor float64
	// LaneLineMargin is the distance to a lane line below which the
	// driver steers back (0.5 m per the paper).
	LaneLineMargin float64
	// BrakeDecel is the driver's emergency deceleration target (m/s^2,
	// positive), following the sudden-braking behaviour study the paper
	// cites.
	BrakeDecel float64
	// BrakeJerk is the ramp rate toward BrakeDecel (m/s^3).
	BrakeJerk float64
	// SteerGain scales the corrective pure-pursuit steering authority.
	SteerGain float64
	// ReleaseAfter is how long all conditions must stay clear before the
	// driver releases an intervention (s).
	ReleaseAfter float64
	// SteerHold is the minimum time the driver keeps manual steering
	// after taking the wheel (s). Having just watched the vehicle veer,
	// a human does not hand lateral control back immediately.
	SteerHold float64
	// ReactionSigma makes the reaction time stochastic: each reaction
	// is drawn from a lognormal distribution with median ReactionTime
	// and log-space standard deviation ReactionSigma (an extension over
	// the paper's fixed-time model, per its future-work discussion).
	// Zero keeps the fixed reaction time. Requires NewSeeded.
	ReactionSigma float64
}

// DefaultConfig returns the paper-aligned driver parameters.
func DefaultConfig() Config {
	return Config{
		ReactionTime:             DefaultReactionTime,
		VehicleLength:            4.9,
		SpeedTolerance:           0.10,
		UnexpectedAccel:          0.3,
		UnexpectedAccelGapFactor: 3.5,
		LaneLineMargin:           0.5,
		BrakeDecel:               7.0,
		BrakeJerk:                12.0,
		SteerGain:                2.0,
		ReleaseAfter:             1.0,
		SteerHold:                8.0,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case !(c.ReactionTime >= 0):
		return fmt.Errorf("driver: ReactionTime must be non-negative")
	case !(c.VehicleLength > 0):
		return fmt.Errorf("driver: VehicleLength must be positive")
	case !(c.BrakeDecel > 0) || !(c.BrakeJerk > 0):
		return fmt.Errorf("driver: brake profile must be positive")
	case !(c.LaneLineMargin >= 0):
		return fmt.Errorf("driver: LaneLineMargin must be non-negative")
	}
	return nil
}

// Intervention is the driver's output for one step.
type Intervention struct {
	// BrakeActive: the driver is emergency braking (zero throttle, no
	// change to steering).
	BrakeActive bool
	// BrakeAccel is the commanded acceleration while braking (<= 0).
	BrakeAccel float64
	// SteerActive: the driver is steering back to the lane centre.
	SteerActive bool
	// SteerCurvature is the commanded curvature while steering.
	SteerCurvature float64
}

// Any reports whether the driver is intervening at all.
func (iv Intervention) Any() bool { return iv.BrakeActive || iv.SteerActive }

// Model is a stateful driver instance for one run.
type Model struct {
	cfg Config

	brakePendingAt float64 // first time a brake condition held; -1 idle
	steerPendingAt float64
	brakeActive    bool
	steerActive    bool
	brakeAccel     float64 // current ramped brake command
	clearSince     float64 // time all conditions have been clear

	firstBrakeAt float64
	firstSteerAt float64
	steerSince   float64 // when the current steering takeover began
	brakeCause   Condition
	steerCause   Condition

	rng           *rand.Rand // nil: fixed reaction times
	brakeReaction float64    // sampled delay for the pending brake
	steerReaction float64    // sampled delay for the pending steer
}

// New constructs a driver model with deterministic reaction times.
func New(cfg Config) (*Model, error) {
	if cfg.ReactionSigma != 0 {
		return nil, fmt.Errorf("driver: ReactionSigma requires NewSeeded")
	}
	return NewSeeded(cfg, 0)
}

// NewSeeded constructs a driver model; when cfg.ReactionSigma > 0 each
// reaction delay is sampled lognormally using the seed.
func NewSeeded(cfg Config, seed int64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		cfg:            cfg,
		brakePendingAt: -1,
		steerPendingAt: -1,
		clearSince:     -1,
		firstBrakeAt:   -1,
		firstSteerAt:   -1,
		brakeReaction:  cfg.ReactionTime,
		steerReaction:  cfg.ReactionTime,
	}
	if cfg.ReactionSigma > 0 {
		m.rng = rand.New(rand.NewSource(seed))
	}
	return m, nil
}

// sampleReaction draws one reaction delay.
func (m *Model) sampleReaction() float64 {
	if m.rng == nil || m.cfg.ReactionSigma <= 0 {
		return m.cfg.ReactionTime
	}
	// Lognormal with median ReactionTime.
	return m.cfg.ReactionTime * math.Exp(m.rng.NormFloat64()*m.cfg.ReactionSigma)
}

// Config returns the driver configuration.
func (m *Model) Config() Config { return m.cfg }

// FirstBrakeAt returns when the driver first braked, or -1.
func (m *Model) FirstBrakeAt() float64 { return m.firstBrakeAt }

// FirstSteerAt returns when the driver first steered, or -1.
func (m *Model) FirstSteerAt() float64 { return m.firstSteerAt }

// BrakeCause returns the condition that caused the first brake reaction.
func (m *Model) BrakeCause() Condition { return m.brakeCause }

// SteerCause returns the condition that caused the first steer reaction.
func (m *Model) SteerCause() Condition { return m.steerCause }

// brakeCondition returns the first Table II brake condition that holds.
func (m *Model) brakeCondition(ob Observation) Condition {
	switch {
	case ob.FCW:
		return CondFCW
	case ob.SpeedLimit > 0 && ob.EgoSpeed > ob.SpeedLimit*(1+m.cfg.SpeedTolerance):
		return CondUnsafeCruiseSpeed
	case ob.LeadValid && ob.LeadGap < m.cfg.VehicleLength:
		return CondUnsafeFollowingDistance
	case ob.LeadValid && ob.LeadGap < m.unexpectedAccelGap() &&
		ob.EgoAccel > m.cfg.UnexpectedAccel && ob.EgoSpeed > ob.LeadSpeed:
		return CondUnexpectedAccel
	case ob.CutIn:
		return CondCutIn
	default:
		return CondNone
	}
}

// unexpectedAccelGap returns the gap below which acceleration alarms the
// driver.
func (m *Model) unexpectedAccelGap() float64 {
	f := m.cfg.UnexpectedAccelGapFactor
	if f <= 0 {
		f = 2.0
	}
	return f * m.cfg.VehicleLength
}

// steerCondition returns the first Table II steering condition that holds.
// The lane departure warning is predictive, as in production LDW systems:
// it fires when the time to line crossing at the current lateral velocity
// drops below ~1.2 s, or when the body is effectively on the line.
func (m *Model) steerCondition(ob Observation) Condition {
	minLine := min(ob.LaneLineLeft, ob.LaneLineRight)
	latVel := ob.EgoSpeed * ob.SinPsi
	const ttlc = 1.2
	departing := (latVel > 0.05 && ob.LaneLineLeft < latVel*ttlc) ||
		(latVel < -0.05 && ob.LaneLineRight < -latVel*ttlc)
	switch {
	case minLine < 0.1 || departing:
		return CondLaneDepartureWarning
	case minLine < m.cfg.LaneLineMargin:
		return CondUnsafeLaneDistance
	default:
		return CondNone
	}
}

// Update processes one observation and returns the driver's intervention.
// dt is the simulation step (s).
func (m *Model) Update(ob Observation, dt float64) Intervention {
	brakeCond := m.brakeCondition(ob)
	steerCond := m.steerCondition(ob)

	// Arm pending reactions when a condition first holds.
	if brakeCond != CondNone && m.brakePendingAt < 0 && !m.brakeActive {
		m.brakePendingAt = ob.T
		m.brakeCause = brakeCond
		m.brakeReaction = m.sampleReaction()
	}
	if steerCond != CondNone && m.steerPendingAt < 0 && !m.steerActive {
		m.steerPendingAt = ob.T
		m.steerCause = steerCond
		m.steerReaction = m.sampleReaction()
	}

	// Fire after the reaction time has elapsed.
	if m.brakePendingAt >= 0 && ob.T-m.brakePendingAt >= m.brakeReaction {
		m.brakeActive = true
		m.brakePendingAt = -1
		if m.firstBrakeAt < 0 {
			m.firstBrakeAt = ob.T
		}
	}
	if m.steerPendingAt >= 0 && ob.T-m.steerPendingAt >= m.steerReaction {
		if !m.steerActive {
			m.steerSince = ob.T
		}
		m.steerActive = true
		m.steerPendingAt = -1
		if m.firstSteerAt < 0 {
			m.firstSteerAt = ob.T
		}
	}

	// Release when every condition has been clear long enough.
	if brakeCond == CondNone && steerCond == CondNone {
		if m.clearSince < 0 {
			m.clearSince = ob.T
		}
		if ob.T-m.clearSince >= m.cfg.ReleaseAfter {
			if m.brakeActive && ob.EgoSpeed < 1 {
				m.brakeActive = false
				m.brakeAccel = 0
			}
			if m.brakeActive && !ob.LeadValid {
				m.brakeActive = false
				m.brakeAccel = 0
			}
			if m.steerActive && math.Abs(ob.LaneOffset) < 0.2 && math.Abs(ob.Psi) < 0.02 &&
				ob.T-m.steerSince >= m.cfg.SteerHold {
				m.steerActive = false
			}
		}
	} else {
		m.clearSince = -1
	}

	var iv Intervention
	if m.brakeActive {
		// Jerk-limited ramp toward the emergency deceleration.
		m.brakeAccel = max(m.brakeAccel-m.cfg.BrakeJerk*dt, -m.cfg.BrakeDecel)
		iv.BrakeActive = true
		iv.BrakeAccel = m.brakeAccel
	} else {
		m.brakeAccel = 0
	}
	if m.steerActive {
		iv.SteerActive = true
		iv.SteerCurvature = m.steerCurvature(ob)
	}
	return iv
}

// steerCurvature computes the corrective steering: a pure-pursuit return
// to the lane centre on top of the road curvature.
func (m *Model) steerCurvature(ob Observation) float64 {
	look := max(8, ob.EgoSpeed*0.8)
	latErr := -ob.LaneOffset - look*ob.SinPsi
	kappa := ob.RoadCurvature + m.cfg.SteerGain*2*latErr/(look*look)
	return units.Clamp(kappa, -0.2, 0.2)
}
