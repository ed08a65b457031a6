// Package monitor implements a rule-based runtime anomaly monitor for the
// perception outputs — the knowledge-driven alternative to the paper's
// ML-based mitigation baseline, following the hybrid runtime-monitor line
// of work the paper cites. It checks physical-consistency invariants on
// the perception stream each control cycle and, when a check fails,
// produces a conservative fallback command.
//
// Checks:
//
//  1. Distance jump: the perceived relative distance cannot change faster
//     than physics allows between consecutive frames. The paper's tiered
//     RD attack produces multi-metre discontinuities at every tier
//     boundary, which this check catches.
//  2. Kinematic consistency: the change of the perceived distance must
//     match the integral of the perceived closing speed (CUSUM over the
//     residual). A spoofed but smooth distance stream diverges from the
//     odometry-derived expectation.
//  3. Lateral consistency: the desired curvature must not persistently
//     steer toward an already-close lane line. The ALC attack does
//     exactly that once the vehicle starts drifting.
//
// Stealthier attacks (e.g. fi.TargetLaneShift, which corrupts the lane
// lines themselves while preserving their sum) are designed to evade
// rule-based monitors; see the extension experiment in EXPERIMENTS.md.
package monitor

import (
	"fmt"
	"math"

	"adasim/internal/perception"
	"adasim/internal/vehicle"
)

// Config holds the monitor thresholds.
type Config struct {
	// MaxDistanceJump is the largest physically plausible frame-to-frame
	// change of the perceived relative distance (m per control cycle,
	// beyond measurement noise).
	MaxDistanceJump float64
	// ResidualWindow is the number of control cycles over which the
	// kinematic residual is evaluated; windowing averages out the
	// per-frame measurement noise that would otherwise dominate.
	ResidualWindow int
	// ResidualBias and ResidualThreshold parameterise the CUSUM over
	// the per-window kinematic residual
	// |dRD_window - (-mean(RS)*window)| (m / m).
	ResidualBias      float64
	ResidualThreshold float64
	// ResidualCap bounds a single window's contribution so one shock
	// cannot poison the statistic forever (m).
	ResidualCap float64
	// TrackLossMin / TrackLossMax bound the mid-range band in which a
	// tracked lead suddenly disappearing is anomalous: real tracks are
	// lost near the sensor floor (close-range dropout) or at the range
	// limit, not in between (m).
	TrackLossMin float64
	TrackLossMax float64
	// LateralMargin is the lane-line distance below which steering
	// further toward that line is anomalous (m).
	LateralMargin float64
	// LateralStrikes is how many consecutive anomalous lateral cycles
	// trigger the lateral anomaly.
	LateralStrikes int
	// FallbackDecel is the conservative deceleration commanded during
	// longitudinal recovery (m/s^2, positive).
	FallbackDecel float64
	// Hold keeps the recovery active this long after the last anomalous
	// cycle (s).
	Hold float64
}

// DefaultConfig returns thresholds calibrated against the benign noise
// levels of the perception model.
func DefaultConfig() Config {
	return Config{
		MaxDistanceJump:   2.0,
		ResidualWindow:    50,
		ResidualBias:      0.35,
		ResidualThreshold: 4.0,
		ResidualCap:       5.0,
		TrackLossMin:      8.0,
		TrackLossMax:      65.0,
		LateralMargin:     0.45,
		LateralStrikes:    25,
		FallbackDecel:     2.5,
		Hold:              3.0,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case !(c.MaxDistanceJump > 0):
		return fmt.Errorf("monitor: MaxDistanceJump must be positive")
	case c.ResidualWindow <= 0:
		return fmt.Errorf("monitor: ResidualWindow must be positive")
	case !(c.ResidualBias > 0) || !(c.ResidualThreshold > 0) || !(c.ResidualCap > 0):
		return fmt.Errorf("monitor: residual CUSUM parameters must be positive")
	case !(c.TrackLossMin >= 0) || !(c.TrackLossMax >= c.TrackLossMin):
		return fmt.Errorf("monitor: track-loss band invalid")
	case !(c.LateralMargin >= 0) || c.LateralStrikes <= 0:
		return fmt.Errorf("monitor: lateral parameters invalid")
	case !(c.FallbackDecel > 0):
		return fmt.Errorf("monitor: FallbackDecel must be positive")
	case !(c.Hold >= 0):
		return fmt.Errorf("monitor: Hold must be non-negative")
	}
	return nil
}

// Decision is the monitor output for one cycle.
type Decision struct {
	// LongAnomaly / LatAnomaly report which invariant class fired.
	LongAnomaly bool
	LatAnomaly  bool
	// Override is the fallback command; valid when Active.
	Override vehicle.Command
	// Active reports that the fallback should replace the machine
	// command this cycle.
	Active bool
}

// Monitor is a stateful runtime anomaly monitor.
type Monitor struct {
	cfg Config

	havePrev  bool
	prevRD    float64
	prevValid bool

	// Window ring buffers for the kinematic check.
	rdHist     []float64
	rsHist     []float64
	cusum      float64
	latStrikes int

	longUntil float64 // recovery hold deadlines
	latUntil  float64

	// trustedKappa is a slow exponential average of the commanded
	// curvature (~3 s time constant): an attack that ramps within a few
	// seconds contaminates it only partially, so holding it during
	// lateral recovery mostly cancels the injected deviation.
	trustedKappa  float64
	firstDetectAt float64
}

// New constructs a Monitor.
func New(cfg Config) (*Monitor, error) {
	m := &Monitor{}
	if err := m.Reset(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset clears all detector state for a new run, reusing the residual-
// window buffers when the window size is unchanged. cfg replaces the
// thresholds; the result behaves identically to a fresh New(cfg).
func (m *Monitor) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.cfg = cfg
	// The kinematic check appends one frame past the window before
	// flushing, so size the buffers for ResidualWindow+1 entries.
	if cap(m.rdHist) < cfg.ResidualWindow+1 {
		m.rdHist = make([]float64, 0, cfg.ResidualWindow+1)
		m.rsHist = make([]float64, 0, cfg.ResidualWindow+1)
	} else {
		m.rdHist = m.rdHist[:0]
		m.rsHist = m.rsHist[:0]
	}
	m.havePrev = false
	m.prevRD = 0
	m.prevValid = false
	m.cusum = 0
	m.latStrikes = 0
	m.longUntil = -1
	m.latUntil = -1
	m.trustedKappa = 0
	m.firstDetectAt = -1
	return nil
}

// Config returns the monitor configuration.
func (m *Monitor) Config() Config { return m.cfg }

// FirstDetectAt returns when an anomaly was first flagged, or -1.
func (m *Monitor) FirstDetectAt() float64 { return m.firstDetectAt }

// Update checks one perception frame at time t (control period dt) and
// returns the monitor decision. adasCmd is the command the control
// software produced this cycle, used to build the fallback.
func (m *Monitor) Update(t float64, out perception.Output, adasCmd vehicle.Command, dt float64) Decision {
	var d Decision

	// --- Longitudinal checks ---
	if out.LeadValid && m.havePrev && m.prevValid {
		// Check 1: frame-to-frame discontinuity.
		if math.Abs(out.LeadDistance-m.prevRD) > m.cfg.MaxDistanceJump {
			d.LongAnomaly = true
			m.rdHist = m.rdHist[:0] // the history straddles the jump
			m.rsHist = m.rsHist[:0]
		}
	}
	// Check 1b: mid-range track loss. A lead that was solidly tracked
	// well inside the detection range does not vanish in one frame
	// (object-removal attacks do exactly that).
	if !out.LeadValid && m.havePrev && m.prevValid &&
		m.prevRD > m.cfg.TrackLossMin && m.prevRD < m.cfg.TrackLossMax {
		d.LongAnomaly = true
	}
	if out.LeadValid {
		// Check 2: windowed kinematic residual CUSUM. Over a full
		// window the true distance change must match the integral of
		// the perceived closing speed; windowing suppresses the
		// per-frame measurement noise.
		m.rdHist = append(m.rdHist, out.LeadDistance)
		m.rsHist = append(m.rsHist, out.RelSpeed())
		if len(m.rdHist) > m.cfg.ResidualWindow {
			first := m.rdHist[0]
			var rsSum float64
			for _, rs := range m.rsHist[:len(m.rsHist)-1] {
				rsSum += rs
			}
			expected := -rsSum * dt
			residual := math.Abs((out.LeadDistance - first) - expected)
			residual = math.Min(residual, m.cfg.ResidualCap)
			m.cusum = math.Max(0, m.cusum+residual-m.cfg.ResidualBias)
			if m.cusum > m.cfg.ResidualThreshold {
				d.LongAnomaly = true
			}
			m.rdHist = m.rdHist[:0]
			m.rsHist = m.rsHist[:0]
		}
	} else {
		m.cusum = 0
		m.rdHist = m.rdHist[:0]
		m.rsHist = m.rsHist[:0]
	}
	m.prevRD = out.LeadDistance
	m.prevValid = out.LeadValid
	m.havePrev = true

	// --- Lateral check: steering toward an already-close line ---
	towardLeft := out.DesiredCurvature > 1e-4 && out.LaneLineLeft < m.cfg.LateralMargin
	towardRight := out.DesiredCurvature < -1e-4 && out.LaneLineRight < m.cfg.LateralMargin
	if towardLeft || towardRight {
		m.latStrikes++
	} else {
		m.latStrikes = 0
	}
	if m.latUntil < t {
		const emaAlpha = 0.0033 // ~3 s time constant at 100 Hz
		m.trustedKappa += emaAlpha * (adasCmd.Curvature - m.trustedKappa)
	}
	if m.latStrikes >= m.cfg.LateralStrikes {
		d.LatAnomaly = true
	}

	// --- Recovery holds ---
	if d.LongAnomaly {
		m.longUntil = t + m.cfg.Hold
	}
	if d.LatAnomaly {
		m.latUntil = t + m.cfg.Hold
	}
	longActive := m.longUntil >= t
	latActive := m.latUntil >= t
	if (d.LongAnomaly || d.LatAnomaly) && m.firstDetectAt < 0 {
		m.firstDetectAt = t
	}
	if !longActive && !latActive {
		return d
	}

	// Fallback: distrust the flagged channel. Longitudinal anomaly →
	// conservative braking instead of the (possibly spoofed-optimistic)
	// planner output. Lateral anomaly → hold the last trusted curvature.
	d.Active = true
	d.Override = adasCmd
	if longActive {
		d.Override.Accel = math.Min(adasCmd.Accel, -m.cfg.FallbackDecel)
	}
	if latActive {
		// Hold the trusted curvature and slow down: lateral drift
		// acceleration scales with speed squared, so shedding speed is
		// itself a lateral mitigation.
		d.Override.Curvature = m.trustedKappa
		d.Override.Accel = math.Min(d.Override.Accel, -m.cfg.FallbackDecel/2)
	}
	return d
}
