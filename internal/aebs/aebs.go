// Package aebs implements the time-to-collision-based, phase-controlled
// advanced emergency braking system (AEBS) and forward collision warning
// (FCW) of the paper (Section III-C, Eq. 1-4, Table I), following UN R152
// style guidance.
//
// The system supports the paper's three deployment configurations: AEBS
// disabled, AEBS fed by the (possibly compromised) perception outputs, and
// AEBS fed by an independent, secure sensor.
package aebs

import (
	"fmt"
	"math"
)

// InputSource selects where the AEBS reads relative distance/speed from.
type InputSource int

// AEBS configurations from the paper.
const (
	// SourceDisabled turns the AEBS off entirely.
	SourceDisabled InputSource = iota + 1
	// SourceCompromised feeds the AEBS the same perception outputs the
	// ADAS uses, including any injected faults.
	SourceCompromised
	// SourceIndependent feeds the AEBS ground-truth measurements from an
	// independent sensor (e.g. a dedicated radar).
	SourceIndependent
)

// String returns the source name.
func (s InputSource) String() string {
	switch s {
	case SourceDisabled:
		return "disabled"
	case SourceCompromised:
		return "compromised"
	case SourceIndependent:
		return "independent"
	default:
		return "unknown"
	}
}

// Phase is the current AEBS actuation phase (Table I).
type Phase int

// AEBS phases in escalation order.
const (
	PhaseNone Phase = iota
	PhaseFCW
	PhaseBrake90
	PhaseBrake95
	PhaseBrake100
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return "none"
	case PhaseFCW:
		return "fcw"
	case PhaseBrake90:
		return "brake-90%"
	case PhaseBrake95:
		return "brake-95%"
	case PhaseBrake100:
		return "brake-100%"
	default:
		return "unknown"
	}
}

// BrakeFraction returns the brake command fraction for the phase.
func (p Phase) BrakeFraction() float64 {
	switch p {
	case PhaseBrake90:
		return 0.90
	case PhaseBrake95:
		return 0.95
	case PhaseBrake100:
		return 1.00
	default:
		return 0
	}
}

// Config are the AEBS parameters. Defaults implement Eq. (2)-(4).
type Config struct {
	// DriverDecel is the assumed human braking deceleration a_driver
	// used for T_stop (m/s^2).
	DriverDecel float64
	// ReactTime is the assumed driver reaction time T_react (s).
	ReactTime float64
	// PB1Div, PB2Div, FBDiv are the speed divisors of the phased braking
	// thresholds: t_pb1 = V/PB1Div, t_pb2 = V/PB2Div, t_fb = V/FBDiv.
	PB1Div float64
	PB2Div float64
	FBDiv  float64
}

// DefaultConfig returns the paper's AEBS parameters.
func DefaultConfig() Config {
	return Config{
		DriverDecel: 4.5,
		ReactTime:   2.5,
		PB1Div:      3.8,
		PB2Div:      5.8,
		FBDiv:       9.8,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if !(c.DriverDecel > 0) || !(c.ReactTime >= 0) {
		return fmt.Errorf("aebs: DriverDecel/ReactTime invalid: %+v", c)
	}
	if !(c.PB1Div > 0 && c.PB2Div > c.PB1Div && c.FBDiv > c.PB2Div) {
		return fmt.Errorf("aebs: phase divisors must satisfy 0 < PB1 < PB2 < FB: %+v", c)
	}
	return nil
}

// Inputs is one frame of AEBS sensing.
type Inputs struct {
	EgoSpeed  float64 // ego speed V_ego (m/s)
	LeadValid bool    // whether a lead is sensed
	RD        float64 // relative distance to the lead (m)
	RS        float64 // relative (closing) speed, ego minus lead (m/s)
}

// TTC returns the time to collision RD/RS (Eq. 1), or +Inf when not
// closing or no lead is sensed.
func (in Inputs) TTC() float64 {
	if !in.LeadValid || in.RS <= 0 {
		return math.Inf(1)
	}
	return in.RD / in.RS
}

// Decision is the AEBS output for one frame.
type Decision struct {
	FCW           bool    // forward collision warning active
	Phase         Phase   // current actuation phase
	BrakeFraction float64 // fraction of full braking commanded (0..1)
	TTC           float64 // computed time to collision
}

// Braking reports whether the AEBS is commanding brake.
func (d Decision) Braking() bool { return d.BrakeFraction > 0 }

// System is a stateful AEBS instance.
type System struct {
	cfg    Config
	source InputSource

	latched      bool
	firstFCWAt   float64
	firstBrakeAt float64
}

// New constructs an AEBS with the given configuration and input source.
func New(cfg Config, source InputSource) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch source {
	case SourceDisabled, SourceCompromised, SourceIndependent:
	default:
		return nil, fmt.Errorf("aebs: unknown input source %d", source)
	}
	return &System{cfg: cfg, source: source, firstFCWAt: -1, firstBrakeAt: -1}, nil
}

// Source returns the configured input source.
func (s *System) Source() InputSource { return s.source }

// Config returns the AEBS parameters.
func (s *System) Config() Config { return s.cfg }

// FirstFCWAt returns the time the FCW first fired, or -1.
func (s *System) FirstFCWAt() float64 { return s.firstFCWAt }

// FirstBrakeAt returns the time phased braking first engaged, or -1.
func (s *System) FirstBrakeAt() float64 { return s.firstBrakeAt }

// FCWThreshold returns t_fcw = T_react + V/a_driver (Eq. 2-3) for ego
// speed v.
func (s *System) FCWThreshold(v float64) float64 {
	return s.cfg.ReactTime + v/s.cfg.DriverDecel
}

// PhaseFor returns the actuation phase for ego speed v and time to
// collision ttc (Table I).
func (s *System) PhaseFor(v, ttc float64) Phase {
	switch {
	case ttc <= v/s.cfg.FBDiv:
		return PhaseBrake100
	case ttc <= v/s.cfg.PB2Div:
		return PhaseBrake95
	case ttc <= v/s.cfg.PB1Div:
		return PhaseBrake90
	case ttc <= s.FCWThreshold(v):
		return PhaseFCW
	default:
		return PhaseNone
	}
}

// imminent reports whether a collision is unavoidable without immediate
// full braking: the remaining distance is within the full-brake stopping
// envelope plus an actuation-delay margin. This complements the
// speed-scaled Table I thresholds, which vanish at low ego speeds (e.g.
// re-approaching a stopped lead), per UN R152 low-speed requirements.
func (s *System) imminent(in Inputs) bool {
	if !in.LeadValid || in.RS <= 0 {
		return false
	}
	const (
		fullBrake = 6.5 // conservative assumed deceleration (m/s^2)
		respTime  = 0.3 // actuation delay margin (s)
	)
	return in.RD < in.RS*respTime+in.RS*in.RS/(2*fullBrake)
}

// Update evaluates one frame at simulation time t. Once phased braking has
// engaged it latches until the situation clears (no longer closing in or
// the ego has stopped), as real AEBS implementations do.
func (s *System) Update(t float64, in Inputs) Decision {
	if s.source == SourceDisabled {
		return Decision{TTC: math.Inf(1)}
	}
	ttc := in.TTC()
	phase := s.PhaseFor(in.EgoSpeed, ttc)
	if s.imminent(in) {
		phase = PhaseBrake100
	}

	if s.latched {
		// Release only once the situation has genuinely cleared: the
		// lead is gone, or the gap is opening with room to spare. An
		// AEBS that has stopped the vehicle holds the brake while an
		// obstacle remains close ahead (standstill hold).
		const holdDistance = 6.0
		cleared := !in.LeadValid || (in.RS <= 0 && in.RD > holdDistance)
		if cleared {
			s.latched = false
		} else if phase < PhaseBrake90 {
			phase = PhaseBrake90 // hold braking while still closing in
		}
	}
	if phase >= PhaseBrake90 {
		s.latched = true
		if s.firstBrakeAt < 0 {
			s.firstBrakeAt = t
		}
	}
	fcw := phase >= PhaseFCW
	if fcw && s.firstFCWAt < 0 {
		s.firstFCWAt = t
	}
	return Decision{
		FCW:           fcw,
		Phase:         phase,
		BrakeFraction: phase.BrakeFraction(),
		TTC:           ttc,
	}
}

// Reset clears latching and trigger bookkeeping.
func (s *System) Reset() {
	s.latched = false
	s.firstFCWAt = -1
	s.firstBrakeAt = -1
}
