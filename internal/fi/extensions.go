package fi

import (
	"fmt"
	"math"

	"adasim/internal/perception"
)

// Extended attack targets beyond the paper's Table III, drawn from the
// attacks the paper cites: lead-removal attacks (Sato et al.), stealthy
// gradual perception attacks (Zhou et al.), and lane-line shift attacks
// (the DRP attack's alternative formulation).
const (
	// TargetLeadRemoval makes the lead vehicle disappear from perception
	// entirely while in the trigger range, modelling object-removal
	// attacks on the detector.
	TargetLeadRemoval Target = iota + 10
	// TargetStealthyDistance applies a slowly growing RD offset designed
	// to stay below simple anomaly-detection thresholds (runtime
	// stealthy perception attacks).
	TargetStealthyDistance
	// TargetLaneShift shifts both perceived lane lines laterally,
	// dragging the ALC's notion of the lane centre sideways.
	TargetLaneShift
)

// ExtendedTargets lists the extension attacks.
func ExtendedTargets() []Target {
	return []Target{TargetLeadRemoval, TargetStealthyDistance, TargetLaneShift}
}

// extString names the extended targets (called from Target.String).
func extString(t Target) (string, bool) {
	switch t {
	case TargetLeadRemoval:
		return "lead-removal", true
	case TargetStealthyDistance:
		return "stealthy-distance", true
	case TargetLaneShift:
		return "lane-shift", true
	default:
		return "", false
	}
}

// ExtensionParams tune the extended attacks.
type ExtensionParams struct {
	// RemovalBelow: the lead disappears when its true perceived distance
	// is below this (m).
	RemovalBelow float64
	// StealthRate is the RD offset growth rate (m/s).
	StealthRate float64
	// StealthMax caps the stealthy offset (m).
	StealthMax float64
	// LaneShift is the lateral lane-line shift (m, positive pushes the
	// perceived lane centre left).
	LaneShift float64
	// LaneShiftDuration holds the shift active after the patch (s).
	LaneShiftDuration float64
	// LaneShiftRamp grows the shift over this time (s).
	LaneShiftRamp float64
}

// DefaultExtensionParams returns calibrated extension-attack parameters.
func DefaultExtensionParams() ExtensionParams {
	return ExtensionParams{
		RemovalBelow:      60,
		StealthRate:       0.8,
		StealthMax:        30,
		LaneShift:         1.9,
		LaneShiftDuration: 10,
		LaneShiftRamp:     4,
	}
}

// Validate reports whether the extension parameters are usable.
func (p ExtensionParams) Validate() error {
	switch {
	case !(p.RemovalBelow >= 0):
		return fmt.Errorf("fi: RemovalBelow must be non-negative")
	case !(p.StealthRate >= 0) || !(p.StealthMax >= 0):
		return fmt.Errorf("fi: stealth parameters must be non-negative")
	case !(p.LaneShiftDuration >= 0) || !(p.LaneShiftRamp >= 0):
		return fmt.Errorf("fi: lane-shift timing must be non-negative")
	}
	return nil
}

// ExtendedInjector applies one of the extension attacks. It satisfies the
// same Apply contract as Injector.
type ExtendedInjector struct {
	target Target
	params ExtensionParams

	stealthStartAt float64
	shiftStartAt   float64
	firstActiveAt  float64
	active         bool
}

// NewExtended constructs an extension-attack injector.
func NewExtended(target Target, params ExtensionParams) (*ExtendedInjector, error) {
	if _, ok := extString(target); !ok {
		return nil, fmt.Errorf("fi: %v is not an extension target", target)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &ExtendedInjector{
		target:         target,
		params:         params,
		stealthStartAt: -1,
		shiftStartAt:   -1,
		firstActiveAt:  -1,
	}, nil
}

// Target returns the configured attack target.
func (inj *ExtendedInjector) Target() Target { return inj.target }

// Active reports whether the attack is currently perturbing outputs.
func (inj *ExtendedInjector) Active() bool { return inj.active }

// FirstActiveAt returns the first injection time, or -1.
func (inj *ExtendedInjector) FirstActiveAt() float64 { return inj.firstActiveAt }

// Apply perturbs the perception frame in place at simulation time t.
func (inj *ExtendedInjector) Apply(t float64, out *perception.Output) bool {
	inj.active = false
	switch inj.target {
	case TargetLeadRemoval:
		if out.LeadValid && out.LeadDistance < inj.params.RemovalBelow {
			out.LeadValid = false
			out.LeadDistance = 0
			out.LeadSpeed = 0
			inj.active = true
		}
	case TargetStealthyDistance:
		if out.LeadValid && out.LeadDistance < 80 {
			if inj.stealthStartAt < 0 {
				inj.stealthStartAt = t
			}
			offset := math.Min(inj.params.StealthMax,
				inj.params.StealthRate*(t-inj.stealthStartAt))
			out.LeadDistance += offset
			inj.active = offset > 0
		}
	case TargetLaneShift:
		if out.OnPatch && inj.shiftStartAt < 0 {
			inj.shiftStartAt = t
		}
		on := inj.shiftStartAt >= 0 &&
			(out.OnPatch || t-inj.shiftStartAt <= inj.params.LaneShiftDuration)
		if on {
			shift := inj.params.LaneShift
			if inj.params.LaneShiftRamp > 0 {
				shift *= math.Min(1, (t-inj.shiftStartAt)/inj.params.LaneShiftRamp)
			}
			// Shifting the perceived lane leftwards: the left line looks
			// farther, the right line closer, and the desired curvature
			// gains the centering correction toward the shifted centre.
			out.LaneLineLeft += shift
			out.LaneLineRight -= shift
			lookDist := 20.0
			out.DesiredCurvature += 2 * shift / (lookDist * lookDist)
			inj.active = shift != 0
		}
	}
	if inj.active && inj.firstActiveAt < 0 {
		inj.firstActiveAt = t
	}
	return inj.active
}
