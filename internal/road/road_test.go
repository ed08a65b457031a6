package road

import (
	"math"
	"testing"
	"testing/quick"

	"adasim/internal/geo"
)

func testRoad(t *testing.T) *Road {
	t.Helper()
	r, err := New(Config{
		Segments: []geo.Segment{{Length: 1000}},
		NumLanes: 3,
		RefLane:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewDefaults(t *testing.T) {
	r, err := New(Config{Segments: []geo.Segment{{Length: 100}}})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumLanes() != 3 {
		t.Errorf("NumLanes = %d", r.NumLanes())
	}
	if r.LaneWidth() != DefaultLaneWidth {
		t.Errorf("LaneWidth = %v", r.LaneWidth())
	}
	if r.Friction() != DefaultFriction {
		t.Errorf("Friction = %v", r.Friction())
	}
}

func TestNewValidation(t *testing.T) {
	base := []geo.Segment{{Length: 100}}
	tests := []struct {
		name string
		cfg  Config
	}{
		{"no segments", Config{}},
		{"bad lanes", Config{Segments: base, NumLanes: -1}},
		{"bad ref lane", Config{Segments: base, NumLanes: 2, RefLane: 5}},
		{"bad lane width", Config{Segments: base, LaneWidth: -1}},
		{"bad friction", Config{Segments: base, Friction: -0.5}},
		{"huge friction", Config{Segments: base, Friction: 3}},
		{"NaN friction", Config{Segments: base, Friction: math.NaN()}},
		{"NaN lane width", Config{Segments: base, LaneWidth: math.NaN()}},
		{"bad patch order", Config{Segments: base, Patches: []PatchZone{{StartS: 10, EndS: 5}}}},
		{"bad patch lane", Config{Segments: base, Patches: []PatchZone{{StartS: 1, EndS: 2, Lane: 9}}}},
	}
	for _, tt := range tests {
		if _, err := New(tt.cfg); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

func TestLaneCenterOffset(t *testing.T) {
	r := testRoad(t)
	if got := r.LaneCenterOffset(1); got != 0 {
		t.Errorf("ref lane offset = %v", got)
	}
	if got := r.LaneCenterOffset(0); got != -DefaultLaneWidth {
		t.Errorf("lane 0 offset = %v", got)
	}
	if got := r.LaneCenterOffset(2); got != DefaultLaneWidth {
		t.Errorf("lane 2 offset = %v", got)
	}
}

func TestLaneForOffset(t *testing.T) {
	r := testRoad(t)
	tests := []struct {
		d    float64
		want int
	}{
		{0, 1},
		{1.0, 1},
		{-1.0, 1},
		{2.5, 2},
		{-2.5, 0},
		{100, 2},  // clamped to leftmost
		{-100, 0}, // clamped to rightmost
	}
	for _, tt := range tests {
		if got := r.LaneForOffset(tt.d); got != tt.want {
			t.Errorf("LaneForOffset(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

func TestLaneLineDistances(t *testing.T) {
	r := testRoad(t)
	left, right := r.LaneLineDistances(0)
	if !nearly(left, 1.75) || !nearly(right, 1.75) {
		t.Errorf("centered distances = %v, %v", left, right)
	}
	left, right = r.LaneLineDistances(0.5)
	if !nearly(left, 1.25) || !nearly(right, 2.25) {
		t.Errorf("offset distances = %v, %v", left, right)
	}
}

func TestLaneLineDistancesProperty(t *testing.T) {
	r := testRoad(t)
	f := func(d float64) bool {
		if math.IsNaN(d) || math.Abs(d) > 5 {
			return true
		}
		left, right := r.LaneLineDistances(d)
		// Left + right always equals the lane width.
		return nearly(left+right, r.LaneWidth())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsideRoad(t *testing.T) {
	r := testRoad(t)
	if !r.InsideRoad(0) || !r.InsideRoad(5.0) || !r.InsideRoad(-5.0) {
		t.Error("expected on-road positions inside")
	}
	if r.InsideRoad(6.0) || r.InsideRoad(-6.0) {
		t.Error("expected off-road positions outside")
	}
}

func TestSetFriction(t *testing.T) {
	r := testRoad(t)
	if err := r.SetFriction(0.45); err != nil {
		t.Fatal(err)
	}
	if r.Friction() != 0.45 {
		t.Errorf("friction = %v", r.Friction())
	}
	if err := r.SetFriction(-1); err == nil {
		t.Error("negative friction should fail")
	}
}

func TestPatchZones(t *testing.T) {
	r, err := New(Config{
		Segments: []geo.Segment{{Length: 1000}},
		NumLanes: 3,
		RefLane:  1,
		Patches:  []PatchZone{{StartS: 100, EndS: 110, Lane: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		s, d float64
		want bool
	}{
		{105, 0, true},    // on patch, ego lane
		{105, 3.5, false}, // adjacent lane
		{99, 0, false},    // before patch
		{111, 0, false},   // after patch
		{100, 0, true},    // boundary inclusive
		{110, 0, true},    // boundary inclusive
	}
	for _, tt := range tests {
		if got := r.OnPatch(tt.s, tt.d); got != tt.want {
			t.Errorf("OnPatch(%v, %v) = %v, want %v", tt.s, tt.d, got, tt.want)
		}
	}
	if n := len(r.Patches()); n != 1 {
		t.Errorf("Patches() len = %d", n)
	}
}

func TestBuildMap(t *testing.T) {
	for _, kind := range []MapKind{MapStraight, MapCurvy} {
		r, err := BuildMap(kind, 0, nil)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if r.Length() < 2000 {
			t.Errorf("%v length = %v, too short for experiments", kind, r.Length())
		}
		if r.NumLanes() != 3 || r.Friction() != DefaultFriction {
			t.Errorf("%v unexpected defaults", kind)
		}
	}
	if MapStraight.String() != "straight" || MapCurvy.String() != "curvy" {
		t.Error("map kind names wrong")
	}
}

func TestCurvyMapHasCurves(t *testing.T) {
	r, err := BuildMap(MapCurvy, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sawLeft, sawRight bool
	for s := 0.0; s < r.Length(); s += 10 {
		k, _ := r.CurvatureAt(s, -1)
		if k > 0 {
			sawLeft = true
		}
		if k < 0 {
			sawRight = true
		}
	}
	if !sawLeft || !sawRight {
		t.Error("curvy map should have both left and right curves")
	}
}

func TestFrenetCartesianConsistency(t *testing.T) {
	r, err := BuildMap(MapCurvy, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{10, 450, 800, 1500} {
		for _, d := range []float64{-3, 0, 2.5} {
			p := r.ToCartesian(s, d)
			s2, d2 := r.Project(p, s)
			if !nearly2(s2, s, 0.05) || !nearly2(d2, d, 0.05) {
				t.Errorf("round trip (%v,%v) -> (%v,%v)", s, d, s2, d2)
			}
		}
	}
}

func nearly(a, b float64) bool       { return math.Abs(a-b) < 1e-9 }
func nearly2(a, b, eps float64) bool { return math.Abs(a-b) < eps }
