package geo

import (
	"errors"
	"fmt"
	"math"
)

// ErrBeyondCurve is returned when an arc-length query falls outside a
// curve's domain [0, Length].
var ErrBeyondCurve = errors.New("geo: arc length beyond curve domain")

// Pose is a position plus tangent heading sampled along a curve.
type Pose struct {
	Pos       Vec2    // Cartesian position
	Heading   float64 // tangent heading, radians CCW from +X
	Curvature float64 // signed curvature (1/m); >0 turns left
}

// Segment is one piece of a road centreline: either a straight line or a
// circular arc, parameterised by arc length from its start.
type Segment struct {
	Start     Vec2    // starting position
	Heading0  float64 // tangent heading at Start
	Length    float64 // arc length (> 0)
	Curvature float64 // 0 for a straight line; signed 1/radius for an arc
}

// PoseAt returns the pose at arc length s along the segment. s is clamped
// to [0, Length].
func (g Segment) PoseAt(s float64) Pose {
	if s < 0 {
		s = 0
	}
	if s > g.Length {
		s = g.Length
	}
	if g.Curvature == 0 {
		dir := FromHeading(g.Heading0)
		return Pose{
			Pos:     g.Start.Add(dir.Scale(s)),
			Heading: g.Heading0,
		}
	}
	// Circular arc: centre is perpendicular-left of the start heading at
	// distance radius (right for negative curvature).
	r := 1 / g.Curvature
	centre := g.Start.Add(FromHeading(g.Heading0 + math.Pi/2).Scale(r))
	dTheta := s * g.Curvature
	// Vector from centre to the start point, rotated by the swept angle.
	radial := g.Start.Sub(centre).Rotate(dTheta)
	return Pose{
		Pos:       centre.Add(radial),
		Heading:   WrapAngle(g.Heading0 + dTheta),
		Curvature: g.Curvature,
	}
}

// End returns the pose at the end of the segment.
func (g Segment) End() Pose { return g.PoseAt(g.Length) }

// Validate reports whether the segment is well formed.
func (g Segment) Validate() error {
	if g.Length <= 0 || math.IsNaN(g.Length) || math.IsInf(g.Length, 0) {
		return fmt.Errorf("geo: segment length %v must be positive and finite", g.Length)
	}
	if math.IsNaN(g.Curvature) || math.IsInf(g.Curvature, 0) {
		return fmt.Errorf("geo: segment curvature %v must be finite", g.Curvature)
	}
	return nil
}

// Curve is a piecewise-continuous centreline made of segments laid end to
// end. The first segment defines the origin pose; subsequent segments are
// re-anchored so the curve is C0/C1 continuous regardless of the Start and
// Heading0 values supplied for them.
type Curve struct {
	segs   []Segment
	starts []float64 // cumulative arc length at the start of each segment
	length float64
}

// NewCurve builds a continuous curve from the given segment shapes. Only
// Length and Curvature of each input segment are used beyond the first;
// positions and headings are chained automatically. The origin pose is
// taken from the first segment.
func NewCurve(segs ...Segment) (*Curve, error) {
	if len(segs) == 0 {
		return nil, errors.New("geo: curve needs at least one segment")
	}
	chained := make([]Segment, len(segs))
	starts := make([]float64, len(segs))
	var total float64
	cursor := Pose{Pos: segs[0].Start, Heading: segs[0].Heading0}
	for i, s := range segs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		s.Start = cursor.Pos
		s.Heading0 = cursor.Heading
		chained[i] = s
		starts[i] = total
		total += s.Length
		cursor = s.End()
	}
	return &Curve{segs: chained, starts: starts, length: total}, nil
}

// Length returns the total arc length of the curve.
func (c *Curve) Length() float64 { return c.length }

// segmentAt locates the segment containing arc length s and returns its
// index and the local offset within it. s is clamped to [0, Length].
// hint is the segment a tracked point was last found on, as
// ProjectOptions.Hint is its last arc length: that segment and the next
// are tried before the binary search, and the result is the search's
// whatever the hint.
func (c *Curve) segmentAt(s float64, hint int) (int, float64) {
	if s <= 0 {
		return 0, 0
	}
	if s >= c.length {
		last := len(c.segs) - 1
		return last, c.segs[last].Length
	}
	// starts is non-decreasing, so i is the search's answer (the last
	// start <= s) exactly when the next start is past s.
	for i := max(hint, 0); i < len(c.segs) && i <= hint+1; i++ {
		if c.starts[i] <= s && (i+1 == len(c.segs) || s < c.starts[i+1]) {
			return i, s - c.starts[i]
		}
	}
	// Binary search over cumulative starts.
	lo, hi := 0, len(c.segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.starts[mid] <= s {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, s - c.starts[lo]
}

// PoseAt returns the pose at arc length s, clamping s to the curve domain.
func (c *Curve) PoseAt(s float64) Pose {
	i, local := c.segmentAt(s, -1)
	return c.segs[i].PoseAt(local)
}

// CurvatureAt returns the signed curvature at arc length s. hint is the
// segment the previous lookup of a tracked point returned (-1 for none),
// and seg is the one to pass next time; kappa never depends on the hint.
func (c *Curve) CurvatureAt(s float64, hint int) (kappa float64, seg int) {
	seg, _ = c.segmentAt(s, hint)
	return c.segs[seg].Curvature, seg
}

// ToCartesian converts a Frenet coordinate (s along the curve, d lateral
// offset with +d to the left of the tangent) into a Cartesian position.
func (c *Curve) ToCartesian(s, d float64) Vec2 {
	p := c.PoseAt(s)
	normal := FromHeading(p.Heading + math.Pi/2)
	return p.Pos.Add(normal.Scale(d))
}

// ProjectOptions tunes Frenet projection.
type ProjectOptions struct {
	// Hint is the previous arc length of the point being tracked; the
	// search is confined to a window around it when >= 0.
	Hint float64
	// Window is the half-width of the search window around Hint, metres.
	// Zero means 50 m.
	Window float64
}

// Project finds the Frenet coordinates (s, d) of a Cartesian point by
// sampling the curve. It is accurate to ~1 cm for the gentle-curvature
// highway geometry used in this repository.
func (c *Curve) Project(p Vec2, opt ProjectOptions) (s, d float64) {
	lo, hi := 0.0, c.length
	if opt.Hint >= 0 && opt.Window != 0 || opt.Hint > 0 {
		w := opt.Window
		if w == 0 {
			w = 50
		}
		lo = math.Max(0, opt.Hint-w)
		hi = math.Min(c.length, opt.Hint+w)
	}
	// Coarse scan then refine by ternary-style shrinking.
	best, bestDist := lo, math.Inf(1)
	const coarse = 64
	step := (hi - lo) / coarse
	if step <= 0 {
		step = 1
	}
	for x := lo; x <= hi; x += step {
		dd := c.PoseAt(x).Pos.Dist(p)
		if dd < bestDist {
			bestDist, best = dd, x
		}
	}
	span := step
	for iter := 0; iter < 30 && span > 1e-4; iter++ {
		l := math.Max(lo, best-span)
		r := math.Min(hi, best+span)
		for _, x := range []float64{l, (l + best) / 2, (best + r) / 2, r} {
			dd := c.PoseAt(x).Pos.Dist(p)
			if dd < bestDist {
				bestDist, best = dd, x
			}
		}
		span /= 2
	}
	pose := c.PoseAt(best)
	normal := FromHeading(pose.Heading + math.Pi/2)
	return best, p.Sub(pose.Pos).Dot(normal)
}
