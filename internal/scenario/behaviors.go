package scenario

import (
	"adasim/internal/units"
	"adasim/internal/vehicle"
	"adasim/internal/world"
)

// TriggerKind selects how a behaviour phase change is triggered.
type TriggerKind int

// Trigger kinds.
const (
	// TriggerAtTime fires at a fixed simulation time.
	TriggerAtTime TriggerKind = iota + 1
	// TriggerEgoGapBelow fires when the longitudinal centre distance
	// between the ego and this actor drops below the value.
	TriggerEgoGapBelow
)

// Trigger describes when a behaviour phase change happens. The json tags
// define the stable wire format used inside generated scenario specs.
type Trigger struct {
	Kind  TriggerKind `json:"kind"`
	Value float64     `json:"value"`
}

// fired reports whether the trigger condition holds.
func (tr Trigger) fired(t float64, self vehicle.State, w *world.World) bool {
	switch tr.Kind {
	case TriggerAtTime:
		return t >= tr.Value
	case TriggerEgoGapBelow:
		return self.S-w.Ego().State().S <= tr.Value
	default:
		return false
	}
}

// LeadBehavior is a scripted lane-following controller with up to one
// triggered speed change and one triggered lane change. It implements
// world.Controller.
type LeadBehavior struct {
	// InitialSpeed is the target cruise speed (m/s).
	InitialSpeed float64
	// SpeedTrigger switches the target to TriggeredSpeed when fired;
	// Kind 0 disables it.
	SpeedTrigger   Trigger
	TriggeredSpeed float64
	// BrakeDecel is the deceleration used to reach a lower target
	// (m/s^2, positive). Zero means a gentle default.
	BrakeDecel float64
	// LaneTrigger switches the lateral target to TargetLaneOffset over
	// LaneChangeTime seconds; Kind 0 disables it.
	LaneTrigger      Trigger
	TargetLaneOffset float64
	LaneChangeTime   float64
	// InitialLaneOffset is the starting lateral target (m).
	InitialLaneOffset float64

	speedFired  bool
	laneFiredAt float64
}

var _ world.Controller = (*LeadBehavior)(nil)

// Command implements world.Controller.
func (b *LeadBehavior) Command(t float64, actor *world.Actor, w *world.World) vehicle.Command {
	self := actor.State()
	// Longitudinal: P control toward the current target speed.
	target := b.InitialSpeed
	if b.SpeedTrigger.Kind != 0 && !b.speedFired && b.SpeedTrigger.fired(t, self, w) {
		b.speedFired = true
	}
	if b.speedFired {
		target = b.TriggeredSpeed
	}
	accel := 0.8 * (target - self.V)
	maxBrake := b.BrakeDecel
	if maxBrake == 0 {
		maxBrake = 2.5
	}
	if b.speedFired && target < b.InitialSpeed && self.V > target+0.2 {
		accel = -maxBrake // scripted hard braking phase
	}
	accel = units.Clamp(accel, -maxBrake, 2.0)

	// Lateral: track the current lane-offset target.
	latTarget := b.InitialLaneOffset
	if b.LaneTrigger.Kind != 0 {
		if b.laneFiredAt == 0 && b.LaneTrigger.fired(t, self, w) {
			b.laneFiredAt = max(t, 1e-9)
		}
		if b.laneFiredAt > 0 {
			dur := b.LaneChangeTime
			if dur <= 0 {
				dur = 3
			}
			frac := laneChangeFrac(t-b.laneFiredAt, dur)
			latTarget = b.InitialLaneOffset + frac*(b.TargetLaneOffset-b.InitialLaneOffset)
		}
	}
	kappa := trackOffset(actor, w, latTarget)
	return vehicle.Command{Accel: accel, Curvature: kappa}
}

// laneChangeFrac maps elapsed lane-change time to a smoothstep completion
// fraction for a comfortable lane change.
func laneChangeFrac(elapsed, dur float64) float64 {
	frac := units.Clamp(elapsed/dur, 0, 1)
	return frac * frac * (3 - 2*frac)
}

// trackOffset returns the curvature command to follow the road at lateral
// offset target.
func trackOffset(actor *world.Actor, w *world.World, target float64) float64 {
	self := actor.State()
	look := max(8, self.V*0.8)
	latErr := (target - self.D) - look*actor.Dyn.SinPsi()
	kappa := w.RoadCurvature(actor) + 2*latErr/(look*look)
	return units.Clamp(kappa, -0.2, 0.2)
}

// GenBehavior realises a BehaviorSpec: a piecewise longitudinal profile
// whose segments arm in order, plus at most one lane change. It is the
// controller behind generated scenarios and implements world.Controller
// with the same control laws as the scripted LeadBehavior.
type GenBehavior struct {
	// Spec is the serializable behaviour description.
	Spec BehaviorSpec
	// InitialLaneOffset is the starting lateral target (m), from the
	// actor's placement.
	InitialLaneOffset float64

	active      int // index of the last fired segment; -1 before any
	laneFiredAt float64
}

var _ world.Controller = (*GenBehavior)(nil)

// NewGenBehavior builds the controller for one generated actor.
func NewGenBehavior(spec BehaviorSpec, initialLaneOffset float64) *GenBehavior {
	return &GenBehavior{Spec: spec, InitialLaneOffset: initialLaneOffset, active: -1}
}

// Command implements world.Controller.
func (b *GenBehavior) Command(t float64, actor *world.Actor, w *world.World) vehicle.Command {
	self := actor.State()
	segs := b.Spec.Segments
	for b.active+1 < len(segs) && segs[b.active+1].Trigger.fired(t, self, w) {
		b.active++
	}
	target, prev := b.Spec.InitialSpeed, b.Spec.InitialSpeed
	maxBrake := 2.5
	if b.active >= 0 {
		seg := segs[b.active]
		target = seg.Speed
		if seg.Decel > 0 {
			maxBrake = seg.Decel
		}
		if b.active > 0 {
			prev = segs[b.active-1].Speed
		}
	}
	accel := 0.8 * (target - self.V)
	if b.active >= 0 && target < prev && self.V > target+0.2 {
		accel = -maxBrake // scripted hard braking phase
	}
	accel = units.Clamp(accel, -maxBrake, 2.0)

	latTarget := b.InitialLaneOffset
	if b.Spec.LaneTrigger.Kind != 0 {
		if b.laneFiredAt == 0 && b.Spec.LaneTrigger.fired(t, self, w) {
			b.laneFiredAt = max(t, 1e-9)
		}
		if b.laneFiredAt > 0 {
			dur := b.Spec.LaneChangeTime
			if dur <= 0 {
				dur = 3
			}
			frac := laneChangeFrac(t-b.laneFiredAt, dur)
			latTarget = b.InitialLaneOffset + frac*(b.Spec.TargetLaneOffset-b.InitialLaneOffset)
		}
	}
	return vehicle.Command{Accel: accel, Curvature: trackOffset(actor, w, latTarget)}
}
