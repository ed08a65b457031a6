// Package fi implements the source-level fault-injection engine that
// emulates adversarial-patch perception attacks (paper Section IV-B,
// Table III). Faults perturb the perception outputs before they reach the
// ADAS control software; triggers, magnitudes, and durations follow the
// paper's parameters.
package fi

import (
	"fmt"

	"adasim/internal/perception"
)

// Target identifies the attacked state variable.
type Target int

// Attack targets from Table III.
const (
	// TargetNone disables injection (fault-free baseline).
	TargetNone Target = iota
	// TargetRelDistance attacks the predicted relative distance to the
	// lead vehicle (the ACC attack, patch on the lead's rear).
	TargetRelDistance
	// TargetCurvature attacks the predicted desired curvature (the ALC
	// attack, patch on the road surface).
	TargetCurvature
	// TargetMixed combines both attacks.
	TargetMixed
)

// String returns the target name used in tables.
func (t Target) String() string {
	switch t {
	case TargetNone:
		return "none"
	case TargetRelDistance:
		return "relative-distance"
	case TargetCurvature:
		return "desired-curvature"
	case TargetMixed:
		return "mixed"
	default:
		if name, ok := extString(t); ok {
			return name
		}
		return "unknown"
	}
}

// Targets lists the three attacked fault types in Table III/VI order.
func Targets() []Target {
	return []Target{TargetRelDistance, TargetCurvature, TargetMixed}
}

// DistanceTier is one rung of the range-dependent RD offset ladder: when
// the (true) predicted distance is below Below, Offset metres are added to
// the prediction, making the lead appear farther than it is.
type DistanceTier struct {
	Below  float64 `json:"below"`  // trigger: RD < Below (m)
	Offset float64 `json:"offset"` // injected offset (m)
}

// Params are the fault-injection parameters (Table III). The json tags
// define the stable wire format used by job specs and the result cache.
type Params struct {
	Target Target `json:"target"`
	// DistanceTiers is the RD attack ladder. Tiers are evaluated from
	// the smallest Below upward; the first matching tier applies.
	// The paper's values: +38 m at RD<20, +15 m at RD<25, +10 m at RD<80.
	DistanceTiers []DistanceTier `json:"distance_tiers,omitempty"`
	// CurvatureOffset is the curvature perturbation injected while the
	// ALC attack is active (1/m). The paper reports a 3 % output
	// deviation producing up to a 10-degree steering adjustment; the
	// default is calibrated to that steering-equivalent envelope.
	CurvatureOffset float64 `json:"curvature_offset,omitempty"`
	// CurvatureDuration holds the ALC fault active for this long after
	// the ego first drives over the patch (s). The patch itself is only
	// a few metres long; the perturbation persists in the model state,
	// as reported in the dirty-road attack the paper adopts.
	CurvatureDuration float64 `json:"curvature_duration,omitempty"`
	// CurvatureRamp is the time (s) over which the injected curvature
	// deviation grows to its full value, modelling the gradual build-up
	// of the dirty-road patch effect as more of the patch enters the
	// camera view.
	CurvatureRamp float64 `json:"curvature_ramp,omitempty"`
}

// DefaultParams returns the paper's Table III parameters for the target.
func DefaultParams(target Target) Params {
	return Params{
		Target: target,
		DistanceTiers: []DistanceTier{
			{Below: 20, Offset: 38},
			{Below: 25, Offset: 15},
			{Below: 80, Offset: 10},
		},
		CurvatureOffset:   0.0123,
		CurvatureDuration: 10.0,
		CurvatureRamp:     5.0,
	}
}

// Validate reports whether the parameters are well formed.
func (p Params) Validate() error {
	last := 0.0
	for i, tier := range p.DistanceTiers {
		if !(tier.Below > last) {
			return fmt.Errorf("fi: distance tier %d not in increasing Below order", i)
		}
		last = tier.Below
	}
	if !(p.CurvatureDuration >= 0) {
		return fmt.Errorf("fi: CurvatureDuration must be non-negative")
	}
	if !(p.CurvatureRamp >= 0) {
		return fmt.Errorf("fi: CurvatureRamp must be non-negative")
	}
	return nil
}

// Injector applies faults to perception frames and records activation
// bookkeeping used by the metrics (attack start time).
type Injector struct {
	params Params

	rdActive        bool
	curvActive      bool
	curvActivatedAt float64
	firstActiveAt   float64
	everActive      bool
}

// New constructs an Injector. TargetNone yields a pass-through injector.
func New(params Params) (*Injector, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Injector{params: params, curvActivatedAt: -1, firstActiveAt: -1}, nil
}

// Params returns the injection parameters.
func (inj *Injector) Params() Params { return inj.params }

// Active reports whether any fault is currently being injected.
func (inj *Injector) Active() bool { return inj.rdActive || inj.curvActive }

// EverActive reports whether any fault has been injected so far.
func (inj *Injector) EverActive() bool { return inj.everActive }

// FirstActiveAt returns the simulation time of the first injection, or -1
// if no fault has activated yet.
func (inj *Injector) FirstActiveAt() float64 { return inj.firstActiveAt }

// Apply perturbs the perception frame in place according to the configured
// attack, at simulation time t. It returns true when a fault was injected
// this frame.
func (inj *Injector) Apply(t float64, out *perception.Output) bool {
	inj.rdActive = false
	attackRD := inj.params.Target == TargetRelDistance || inj.params.Target == TargetMixed
	attackCurv := inj.params.Target == TargetCurvature || inj.params.Target == TargetMixed

	if attackRD && out.LeadValid {
		if offset, ok := inj.distanceOffset(out.LeadDistance); ok {
			out.LeadDistance += offset
			inj.rdActive = true
		}
	}

	if attackCurv {
		if out.OnPatch && inj.curvActivatedAt < 0 {
			inj.curvActivatedAt = t
		}
		active := inj.curvActivatedAt >= 0 &&
			(out.OnPatch || t-inj.curvActivatedAt <= inj.params.CurvatureDuration)
		inj.curvActive = active
		if active {
			scale := 1.0
			if inj.params.CurvatureRamp > 0 {
				scale = (t - inj.curvActivatedAt) / inj.params.CurvatureRamp
				if scale > 1 {
					scale = 1
				}
			}
			out.DesiredCurvature += scale * inj.params.CurvatureOffset
		}
	} else {
		inj.curvActive = false
	}

	if inj.Active() && !inj.everActive {
		inj.everActive = true
		inj.firstActiveAt = t
	}
	return inj.Active()
}

// distanceOffset returns the RD offset for the first matching tier.
func (inj *Injector) distanceOffset(rd float64) (float64, bool) {
	for _, tier := range inj.params.DistanceTiers {
		if rd < tier.Below {
			return tier.Offset, true
		}
	}
	return 0, false
}
