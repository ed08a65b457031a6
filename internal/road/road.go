// Package road models the highway geometry used by the simulation: a
// piecewise centreline with parallel lanes, lane lines, per-position
// curvature, surface friction, and the adversarial patch zones that
// trigger lateral (ALC) attacks.
package road

import (
	"errors"
	"fmt"
	"math"

	"adasim/internal/geo"
)

// DefaultLaneWidth is the lane width in metres (MetaDrive highway default).
const DefaultLaneWidth = 3.5

// DefaultFriction is the dry-asphalt tyre/road friction coefficient.
const DefaultFriction = 0.9

// PatchZone is a stretch of road surface carrying an adversarial patch.
// A vehicle "drives over" the patch when its arc length lies in
// [StartS, EndS] and it occupies lane Lane.
type PatchZone struct {
	StartS float64 // arc length where the patch begins (m)
	EndS   float64 // arc length where the patch ends (m)
	Lane   int     // lane index the patch is painted on
}

// Contains reports whether the Frenet position (s, lane) is on the patch.
func (p PatchZone) Contains(s float64, lane int) bool {
	return lane == p.Lane && s >= p.StartS && s <= p.EndS
}

// Road is a multi-lane highway. Lanes are indexed from 0 (rightmost) to
// NumLanes-1 (leftmost); lateral offsets are measured from the centre of
// the reference lane (RefLane), positive to the left.
type Road struct {
	curve     *geo.Curve
	numLanes  int
	refLane   int
	laneWidth float64
	friction  float64
	patches   []PatchZone
}

// Config describes a road to build.
type Config struct {
	Segments  []geo.Segment // centreline shape of the reference lane
	NumLanes  int           // total lanes; default 3
	RefLane   int           // index of the lane the centreline follows; default 0
	LaneWidth float64       // metres; default DefaultLaneWidth
	Friction  float64       // road/tyre friction coefficient; default DefaultFriction
	Patches   []PatchZone   // adversarial patch zones
}

// New builds a Road from cfg.
func New(cfg Config) (*Road, error) {
	if len(cfg.Segments) == 0 {
		return nil, errors.New("road: config needs at least one segment")
	}
	curve, err := geo.NewCurve(cfg.Segments...)
	if err != nil {
		return nil, fmt.Errorf("road: %w", err)
	}
	if cfg.NumLanes == 0 {
		cfg.NumLanes = 3
	}
	if cfg.NumLanes < 1 {
		return nil, fmt.Errorf("road: NumLanes %d must be >= 1", cfg.NumLanes)
	}
	if cfg.RefLane < 0 || cfg.RefLane >= cfg.NumLanes {
		return nil, fmt.Errorf("road: RefLane %d out of range [0,%d)", cfg.RefLane, cfg.NumLanes)
	}
	if cfg.LaneWidth == 0 {
		cfg.LaneWidth = DefaultLaneWidth
	}
	if !(cfg.LaneWidth > 0) {
		return nil, fmt.Errorf("road: LaneWidth %v must be positive", cfg.LaneWidth)
	}
	if cfg.Friction == 0 {
		cfg.Friction = DefaultFriction
	}
	if !(cfg.Friction > 0 && cfg.Friction <= 2) { // NaN fails too
		return nil, fmt.Errorf("road: Friction %v out of plausible range (0,2]", cfg.Friction)
	}
	for i, p := range cfg.Patches {
		if p.EndS < p.StartS {
			return nil, fmt.Errorf("road: patch %d has EndS < StartS", i)
		}
		if p.Lane < 0 || p.Lane >= cfg.NumLanes {
			return nil, fmt.Errorf("road: patch %d lane %d out of range", i, p.Lane)
		}
	}
	patches := make([]PatchZone, len(cfg.Patches))
	copy(patches, cfg.Patches)
	return &Road{
		curve:     curve,
		numLanes:  cfg.NumLanes,
		refLane:   cfg.RefLane,
		laneWidth: cfg.LaneWidth,
		friction:  cfg.Friction,
		patches:   patches,
	}, nil
}

// Length returns the total arc length of the road.
func (r *Road) Length() float64 { return r.curve.Length() }

// NumLanes returns the number of lanes.
func (r *Road) NumLanes() int { return r.numLanes }

// LaneWidth returns the lane width in metres.
func (r *Road) LaneWidth() float64 { return r.laneWidth }

// Friction returns the road/tyre friction coefficient.
func (r *Road) Friction() float64 { return r.friction }

// SetFriction overrides the friction coefficient, used by the weather
// experiments (Table VIII). The value must be positive.
func (r *Road) SetFriction(mu float64) error {
	if mu <= 0 {
		return fmt.Errorf("road: friction %v must be positive", mu)
	}
	r.friction = mu
	return nil
}

// CurvatureAt returns the reference-lane centreline curvature at arc
// length s, with geo.Curve.CurvatureAt's segment hint.
func (r *Road) CurvatureAt(s float64, hint int) (kappa float64, seg int) {
	return r.curve.CurvatureAt(s, hint)
}

// PoseAt returns the reference-lane centreline pose at arc length s.
func (r *Road) PoseAt(s float64) geo.Pose { return r.curve.PoseAt(s) }

// LaneCenterOffset returns the lateral offset of the centre of lane from
// the reference lane centreline.
func (r *Road) LaneCenterOffset(lane int) float64 {
	return float64(lane-r.refLane) * r.laneWidth
}

// LaneForOffset returns the index of the lane containing lateral offset d.
// Offsets beyond the outermost lane edges are clamped to the edge lanes.
func (r *Road) LaneForOffset(d float64) int {
	lane := r.refLane + int(math.Round(d/r.laneWidth))
	if lane < 0 {
		lane = 0
	}
	if lane >= r.numLanes {
		lane = r.numLanes - 1
	}
	return lane
}

// LaneLineDistances returns the distance from lateral offset d to the left
// and right lane lines of the lane containing d. Both are positive when the
// point is inside the lane.
func (r *Road) LaneLineDistances(d float64) (left, right float64) {
	lane := r.LaneForOffset(d)
	c := r.LaneCenterOffset(lane)
	left = c + r.laneWidth/2 - d
	right = d - (c - r.laneWidth/2)
	return left, right
}

// InsideRoad reports whether lateral offset d lies within the paved
// roadway (all lanes plus a small shoulder).
func (r *Road) InsideRoad(d float64) bool {
	const shoulder = 0.3
	lo := r.LaneCenterOffset(0) - r.laneWidth/2 - shoulder
	hi := r.LaneCenterOffset(r.numLanes-1) + r.laneWidth/2 + shoulder
	return d >= lo && d <= hi
}

// OnPatch reports whether Frenet position (s, d) lies on any adversarial
// patch zone.
func (r *Road) OnPatch(s, d float64) bool {
	lane := r.LaneForOffset(d)
	for _, p := range r.patches {
		if p.Contains(s, lane) {
			return true
		}
	}
	return false
}

// Patches returns a copy of the configured patch zones.
func (r *Road) Patches() []PatchZone {
	out := make([]PatchZone, len(r.patches))
	copy(out, r.patches)
	return out
}

// ToCartesian converts Frenet (s, d) into a Cartesian position.
func (r *Road) ToCartesian(s, d float64) geo.Vec2 { return r.curve.ToCartesian(s, d) }

// Project converts a Cartesian point into Frenet (s, d), optionally using
// hint as the previously known arc length.
func (r *Road) Project(p geo.Vec2, hint float64) (s, d float64) {
	return r.curve.Project(p, geo.ProjectOptions{Hint: hint})
}
