// Package world hosts the multi-vehicle closed-loop simulation: an ego
// vehicle driven by an external controller, scripted traffic actors, and
// per-step collision / lane-departure detection. It is the MetaDrive
// substitute described in DESIGN.md.
package world

import (
	"errors"
	"fmt"
	"math"

	"adasim/internal/road"
	"adasim/internal/vehicle"
)

// DefaultStep is the simulation step used throughout the paper's
// experiments: 10 ms (100 Hz control frequency).
const DefaultStep = 0.01

// Controller produces a command for a scripted actor each step.
type Controller interface {
	// Command returns the actuator command for actor self at simulation
	// time t, given read-only views of the actor and the world.
	Command(t float64, self *Actor, w *World) vehicle.Command
}

// Actor is one vehicle in the world.
type Actor struct {
	Name string
	Dyn  *vehicle.Dynamics
	Ctrl Controller // nil for the ego vehicle (commanded externally)

	seg int // road segment of the last curvature lookup: the next one's hint
}

// State returns the actor's current state.
func (a *Actor) State() vehicle.State { return a.Dyn.State() }

// World is the physical simulation environment.
type World struct {
	road   *road.Road
	ego    *Actor
	actors []*Actor
	time   float64
	step   float64

	// The lead scan of one world state, for each of leadFracs. It holds
	// while leadRev equals the sum of the vehicles' revisions, which
	// Step and SetState raise. Reset zeroes leadRev, a sum no world
	// reaches: New leaves every vehicle at revision 1.
	leadActor [2]*Actor
	leadGap   [2]float64
	leadRev   uint64
}

// leadFracs are the lead scan's lateral acceptances in lane widths: the
// camera model's, and the independent AEBS radar's wider cone.
var leadFracs = [2]float64{0.6, 1.1}

// Config describes a world to build.
type Config struct {
	Road *road.Road
	Ego  *Actor
	// Actors are the scripted traffic vehicles (lead vehicles, cut-in
	// vehicles, ...). Each must have a Controller.
	Actors []*Actor
	// Step is the integration step in seconds; default DefaultStep.
	Step float64
}

// New builds a World.
func New(cfg Config) (*World, error) {
	w := &World{}
	if err := w.Reset(cfg); err != nil {
		return nil, err
	}
	return w, nil
}

// Reset reinitialises the world in place for a new run at time zero,
// reusing the actors slice. The result is indistinguishable from a fresh
// New(cfg).
func (w *World) Reset(cfg Config) error {
	if cfg.Road == nil {
		return errors.New("world: Road is required")
	}
	if cfg.Ego == nil || cfg.Ego.Dyn == nil {
		return errors.New("world: Ego with dynamics is required")
	}
	for i, a := range cfg.Actors {
		if a == nil || a.Dyn == nil {
			return fmt.Errorf("world: actor %d missing dynamics", i)
		}
		if a.Ctrl == nil {
			return fmt.Errorf("world: actor %d (%s) missing controller", i, a.Name)
		}
	}
	if cfg.Step == 0 {
		cfg.Step = DefaultStep
	}
	if cfg.Step <= 0 {
		return fmt.Errorf("world: step %v must be positive", cfg.Step)
	}
	w.road = cfg.Road
	w.ego = cfg.Ego
	w.actors = append(w.actors[:0], cfg.Actors...)
	w.time = 0
	w.step = cfg.Step
	w.leadRev = 0
	return nil
}

// Road returns the road geometry.
func (w *World) Road() *road.Road { return w.road }

// Ego returns the ego actor.
func (w *World) Ego() *Actor { return w.ego }

// Actors returns the scripted actors (callers must not mutate the slice).
func (w *World) Actors() []*Actor { return w.actors }

// Time returns the current simulation time in seconds.
func (w *World) Time() float64 { return w.time }

// StepSize returns the integration step in seconds.
func (w *World) StepSize() float64 { return w.step }

// Step advances the world by one step: the ego executes egoCmd and each
// scripted actor executes its controller's command.
func (w *World) Step(egoCmd vehicle.Command) {
	dt := w.step
	mu := w.road.Friction()

	w.ego.Dyn.Step(egoCmd, vehicle.StepInput{
		DT:            dt,
		RoadCurvature: w.RoadCurvature(w.ego),
		Friction:      mu,
	})
	for _, a := range w.actors {
		kappa := w.RoadCurvature(a)
		cmd := a.Ctrl.Command(w.time, a, w)
		a.Dyn.Step(cmd, vehicle.StepInput{
			DT:            dt,
			RoadCurvature: kappa,
			Friction:      mu,
		})
	}
	w.time += dt
}

// RoadCurvature returns the road curvature at a's arc length, starting
// the segment search from the segment a was last found on.
func (w *World) RoadCurvature(a *Actor) float64 {
	kappa, seg := w.road.CurvatureAt(a.Dyn.State().S, a.seg)
	a.seg = seg
	return kappa
}

// Lead returns the nearest actor ahead of the ego in the ego's lane
// (within 0.6 lane widths laterally, the camera model's acceptance) and
// the bumper-to-bumper gap to it. ok is false when no actor is ahead in
// lane.
func (w *World) Lead() (lead *Actor, gap float64, ok bool) {
	return w.lead(0)
}

// RadarLead is Lead within 1.1 lane widths: an independent AEBS radar
// has a wider cone than the camera.
func (w *World) RadarLead() (lead *Actor, gap float64, ok bool) {
	return w.lead(1)
}

func (w *World) lead(i int) (*Actor, float64, bool) {
	rev := w.ego.Dyn.Revision()
	for _, a := range w.actors {
		rev += a.Dyn.Revision()
	}
	if rev != w.leadRev {
		w.scanLeads()
		w.leadRev = rev
	}
	if w.leadActor[i] == nil {
		return nil, 0, false
	}
	return w.leadActor[i], w.leadGap[i], true
}

// scanLeads finds the lead for every lateral acceptance in one pass.
func (w *World) scanLeads() {
	es := w.ego.Dyn.State()
	w.leadActor = [2]*Actor{}
	w.leadGap = [2]float64{math.Inf(1), math.Inf(1)}
	for _, a := range w.actors {
		as := a.Dyn.State()
		ds := as.S - es.S
		if ds <= 0 {
			continue
		}
		g := ds - (w.ego.Dyn.Params().Length+a.Dyn.Params().Length)/2
		for i, frac := range leadFracs {
			if !(math.Abs(as.D-es.D) > w.road.LaneWidth()*frac) && g < w.leadGap[i] {
				w.leadActor[i], w.leadGap[i] = a, g
			}
		}
	}
}

// CollisionWith reports whether the ego's footprint overlaps actor a,
// using Frenet-aligned bounding boxes (adequate for highway geometry).
func (w *World) CollisionWith(a *Actor) bool {
	es, as := w.ego.Dyn.State(), a.Dyn.State()
	ep, ap := w.ego.Dyn.Params(), a.Dyn.Params()
	return math.Abs(es.S-as.S) < (ep.Length+ap.Length)/2 &&
		math.Abs(es.D-as.D) < (ep.Width+ap.Width)/2
}

// AnyCollision returns the first actor the ego currently collides with,
// or nil.
func (w *World) AnyCollision() *Actor {
	for _, a := range w.actors {
		if w.CollisionWith(a) {
			return a
		}
	}
	return nil
}

// EgoOffRoad reports whether any part of the ego body has left the paved
// roadway.
func (w *World) EgoOffRoad() bool {
	es := w.ego.Dyn.State()
	half := w.ego.Dyn.Params().Width / 2
	return !w.road.InsideRoad(es.D-half) || !w.road.InsideRoad(es.D+half)
}

// EgoOutOfLane reports whether the ego's body crosses either lane line of
// its current lane by more than tolerance metres.
func (w *World) EgoOutOfLane(tolerance float64) bool {
	es := w.ego.Dyn.State()
	half := w.ego.Dyn.Params().Width / 2
	left, right := w.road.LaneLineDistances(es.D)
	return left < half-tolerance || right < half-tolerance
}
