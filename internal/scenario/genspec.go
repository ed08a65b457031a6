package scenario

import (
	"fmt"
	"math"
)

// IDGenerated marks a Spec whose behaviour comes from its Generated actor
// list rather than the scripted S1..S6 catalogue. Generated scenarios are
// first-class: Build instantiates them through the same path, so every
// layer above (core, experiments, service) runs them unchanged.
const IDGenerated ID = -1

// MaxGeneratedActors bounds the actor count of a generated scenario so a
// single spec cannot blow up per-step simulation cost unboundedly.
const MaxGeneratedActors = 8

// GenSpec is the declarative actor list of a generated scenario. The json
// tags define the stable wire format used by exploration specs and the
// content-addressed result cache; two specs with the same actor list are
// the same scenario regardless of which family generated them.
type GenSpec struct {
	Actors []ActorSpec `json:"actors"`
}

// ActorSpec places one scripted actor and selects its behaviour.
type ActorSpec struct {
	Name string `json:"name"`
	// Gap is the initial bumper-to-bumper distance to the ego (m).
	Gap float64 `json:"gap"`
	// LaneOffset is the initial lateral offset from the ego lane centre
	// (m; one lane width = the adjacent lane).
	LaneOffset float64 `json:"lane_offset,omitempty"`
	// Speed is the initial speed (m/s).
	Speed float64 `json:"speed"`
	// Behavior scripts the actor's motion.
	Behavior BehaviorSpec `json:"behavior"`
}

// SpeedSegment is one phase of a piecewise longitudinal profile.
// Segments arm in order: segment i can only fire after segment i-1 has
// fired, so a profile reads as a sequence of cruise/accelerate/brake
// phases.
type SpeedSegment struct {
	// Trigger starts the segment.
	Trigger Trigger `json:"trigger"`
	// Speed is the segment's target speed (m/s).
	Speed float64 `json:"speed"`
	// Decel bounds the braking used to reach a lower target (m/s^2,
	// positive). Zero means a gentle default.
	Decel float64 `json:"decel,omitempty"`
}

// BehaviorSpec is the serializable form of a generated actor's
// controller: a piecewise speed profile plus at most one lane change.
type BehaviorSpec struct {
	// InitialSpeed is the cruise target before any segment fires (m/s).
	InitialSpeed float64 `json:"initial_speed"`
	// Segments is the piecewise speed profile; empty means constant
	// cruise at InitialSpeed.
	Segments []SpeedSegment `json:"segments,omitempty"`
	// LaneTrigger starts the lane change toward TargetLaneOffset over
	// LaneChangeTime seconds; Kind 0 disables it.
	LaneTrigger      Trigger `json:"lane_trigger"`
	TargetLaneOffset float64 `json:"target_lane_offset,omitempty"`
	LaneChangeTime   float64 `json:"lane_change_time,omitempty"`
}

// finiteFields rejects NaN and ±Inf anywhere in the behaviour.
func (b BehaviorSpec) finiteFields() error {
	vals := []float64{b.InitialSpeed, b.LaneTrigger.Value, b.TargetLaneOffset, b.LaneChangeTime}
	for _, seg := range b.Segments {
		vals = append(vals, seg.Trigger.Value, seg.Speed, seg.Decel)
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scenario: behaviour field must be finite, got %v", v)
		}
	}
	return nil
}

// validTrigger reports whether tr is a known trigger. A zero Kind is
// valid only where a trigger is optional.
func validTrigger(tr Trigger, optional bool) error {
	switch tr.Kind {
	case 0:
		if !optional {
			return fmt.Errorf("scenario: trigger kind is required")
		}
	case TriggerAtTime, TriggerEgoGapBelow:
	default:
		return fmt.Errorf("scenario: unknown trigger kind %d", int(tr.Kind))
	}
	return nil
}

// Validate reports whether the generated scenario is usable.
func (g *GenSpec) Validate() error {
	if len(g.Actors) == 0 {
		return fmt.Errorf("scenario: generated spec needs at least one actor")
	}
	if len(g.Actors) > MaxGeneratedActors {
		return fmt.Errorf("scenario: generated spec has %d actors, max %d", len(g.Actors), MaxGeneratedActors)
	}
	for i, a := range g.Actors {
		if a.Name == "" {
			return fmt.Errorf("scenario: actor %d missing name", i)
		}
		if !(a.Gap > 0) || math.IsInf(a.Gap, 0) {
			return fmt.Errorf("scenario: actor %q Gap must be positive and finite, got %v", a.Name, a.Gap)
		}
		if !(a.Speed >= 0) || math.IsInf(a.Speed, 0) {
			return fmt.Errorf("scenario: actor %q Speed must be non-negative and finite, got %v", a.Name, a.Speed)
		}
		if math.IsNaN(a.LaneOffset) || math.IsInf(a.LaneOffset, 0) {
			return fmt.Errorf("scenario: actor %q LaneOffset must be finite", a.Name)
		}
		b := a.Behavior
		if err := b.finiteFields(); err != nil {
			return err
		}
		if !(b.InitialSpeed >= 0) {
			return fmt.Errorf("scenario: actor %q InitialSpeed must be non-negative", a.Name)
		}
		for j, seg := range b.Segments {
			if err := validTrigger(seg.Trigger, false); err != nil {
				return fmt.Errorf("scenario: actor %q segment %d: %w", a.Name, j, err)
			}
			if !(seg.Speed >= 0) || !(seg.Decel >= 0) {
				return fmt.Errorf("scenario: actor %q segment %d: Speed and Decel must be non-negative", a.Name, j)
			}
		}
		if err := validTrigger(b.LaneTrigger, true); err != nil {
			return fmt.Errorf("scenario: actor %q: %w", a.Name, err)
		}
		if b.LaneTrigger.Kind != 0 && !(b.LaneChangeTime >= 0) {
			return fmt.Errorf("scenario: actor %q LaneChangeTime must be non-negative", a.Name)
		}
	}
	return nil
}
