package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStraightSegmentPose(t *testing.T) {
	g := Segment{Heading0: 0, Length: 100}
	p := g.PoseAt(40)
	if !almost(p.Pos.X, 40, 1e-12) || !almost(p.Pos.Y, 0, 1e-12) {
		t.Errorf("pose at 40 = %v", p.Pos)
	}
	if p.Heading != 0 || p.Curvature != 0 {
		t.Errorf("heading/curvature = %v/%v", p.Heading, p.Curvature)
	}
}

func TestStraightSegmentClamping(t *testing.T) {
	g := Segment{Length: 10}
	if got := g.PoseAt(-5).Pos; got != (Vec2{}) {
		t.Errorf("clamped low = %v", got)
	}
	if got := g.PoseAt(50).Pos; !almost(got.X, 10, 1e-12) {
		t.Errorf("clamped high = %v", got)
	}
}

func TestQuarterCircleArc(t *testing.T) {
	// Left quarter circle of radius 100 starting east: ends heading north
	// at (100, 100).
	r := 100.0
	g := Segment{Length: r * math.Pi / 2, Curvature: 1 / r}
	end := g.End()
	if !almost(end.Pos.X, 100, 1e-9) || !almost(end.Pos.Y, 100, 1e-9) {
		t.Errorf("end pos = %v", end.Pos)
	}
	if !almost(end.Heading, math.Pi/2, 1e-9) {
		t.Errorf("end heading = %v", end.Heading)
	}
}

func TestRightArc(t *testing.T) {
	r := 50.0
	g := Segment{Length: r * math.Pi / 2, Curvature: -1 / r}
	end := g.End()
	if !almost(end.Pos.X, 50, 1e-9) || !almost(end.Pos.Y, -50, 1e-9) {
		t.Errorf("end pos = %v", end.Pos)
	}
	if !almost(end.Heading, -math.Pi/2, 1e-9) {
		t.Errorf("end heading = %v", end.Heading)
	}
}

func TestSegmentValidate(t *testing.T) {
	bad := []Segment{
		{Length: 0},
		{Length: -5},
		{Length: math.NaN()},
		{Length: math.Inf(1)},
		{Length: 10, Curvature: math.NaN()},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("segment %d should fail validation", i)
		}
	}
	if err := (Segment{Length: 10, Curvature: 0.01}).Validate(); err != nil {
		t.Errorf("valid segment rejected: %v", err)
	}
}

func TestNewCurveErrors(t *testing.T) {
	if _, err := NewCurve(); err == nil {
		t.Error("empty curve should fail")
	}
	if _, err := NewCurve(Segment{Length: -1}); err == nil {
		t.Error("invalid segment should fail")
	}
}

func TestCurveChainingContinuity(t *testing.T) {
	c, err := NewCurve(
		Segment{Length: 100},
		Segment{Length: 50, Curvature: 0.01},
		Segment{Length: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(c.Length(), 250, 1e-12) {
		t.Errorf("length = %v", c.Length())
	}
	// Sample densely; consecutive poses must be close (C0 continuity).
	prev := c.PoseAt(0)
	for s := 0.5; s <= c.Length(); s += 0.5 {
		p := c.PoseAt(s)
		if p.Pos.Dist(prev.Pos) > 0.6 {
			t.Fatalf("discontinuity at s=%v: %v -> %v", s, prev.Pos, p.Pos)
		}
		prev = p
	}
}

func TestCurveCurvatureAt(t *testing.T) {
	c, err := NewCurve(
		Segment{Length: 100},
		Segment{Length: 50, Curvature: 0.02},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.CurvatureAt(50, -1); got != 0 {
		t.Errorf("curvature at 50 = %v", got)
	}
	if got, _ := c.CurvatureAt(120, -1); got != 0.02 {
		t.Errorf("curvature at 120 = %v", got)
	}
	if got, _ := c.CurvatureAt(-10, -1); got != 0 {
		t.Errorf("curvature clamped low = %v", got)
	}
	if got, _ := c.CurvatureAt(1e9, -1); got != 0.02 {
		t.Errorf("curvature clamped high = %v", got)
	}
}

// TestSegmentHintMatchesSearch: whatever the hint (none, stale, right,
// out of range), segmentAt returns the binary search's segment. The
// boundaries are probed exactly, where an off-by-one would show.
func TestSegmentHintMatchesSearch(t *testing.T) {
	c, err := NewCurve(
		Segment{Length: 400},
		Segment{Length: 300, Curvature: 1 / 450.},
		Segment{Length: 1e-14}, // below ulp(700): two equal starts
		Segment{Length: 200},
		Segment{Length: 280, Curvature: -1 / 350.},
	)
	if err != nil {
		t.Fatal(err)
	}
	search := func(s float64) (int, float64) { return c.segmentAt(s, -2) }
	probes := []float64{-1, 0, math.NaN(), c.Length(), c.Length() + 1}
	for _, st := range c.starts {
		probes = append(probes, st, math.Nextafter(st, -1), math.Nextafter(st, 2e3))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		probes = append(probes, rng.Float64()*c.Length())
	}
	for _, s := range probes {
		wantSeg, wantLocal := search(s)
		for hint := -3; hint <= len(c.segs)+1; hint++ {
			seg, local := c.segmentAt(s, hint)
			if seg != wantSeg || math.Float64bits(local) != math.Float64bits(wantLocal) {
				t.Fatalf("segmentAt(%v, hint %d) = %d, %v; search gives %d, %v", s, hint, seg, local, wantSeg, wantLocal)
			}
		}
	}
}

func TestFrenetRoundTripProperty(t *testing.T) {
	c, err := NewCurve(
		Segment{Length: 200},
		Segment{Length: 150, Curvature: 1 / 300.0},
		Segment{Length: 100},
		Segment{Length: 120, Curvature: -1 / 250.0},
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		s := rng.Float64() * c.Length()
		d := (rng.Float64()*2 - 1) * 6
		p := c.ToCartesian(s, d)
		s2, d2 := c.Project(p, ProjectOptions{Hint: s})
		return almost(s2, s, 0.05) && almost(d2, d, 0.05)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProjectWithoutHint(t *testing.T) {
	c, err := NewCurve(Segment{Length: 500})
	if err != nil {
		t.Fatal(err)
	}
	s, d := c.Project(Vec2{123, 4.5}, ProjectOptions{})
	if !almost(s, 123, 0.05) || !almost(d, 4.5, 0.05) {
		t.Errorf("project = (%v, %v)", s, d)
	}
}
