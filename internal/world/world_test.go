package world

import (
	"math"
	"testing"

	"adasim/internal/road"
	"adasim/internal/vehicle"
)

type constantCtrl struct {
	cmd vehicle.Command
	n   int
}

func (c *constantCtrl) Command(t float64, self *Actor, w *World) vehicle.Command {
	c.n++
	return c.cmd
}

func testWorld(t *testing.T, actors ...*Actor) *World {
	t.Helper()
	r, err := road.BuildMap(road.MapStraight, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	egoDyn, err := vehicle.New(vehicle.DefaultParams(), vehicle.State{S: 30, V: 20})
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Config{
		Road:   r,
		Ego:    &Actor{Name: "ego", Dyn: egoDyn},
		Actors: actors,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func makeActor(t *testing.T, name string, st vehicle.State, ctrl Controller) *Actor {
	t.Helper()
	dyn, err := vehicle.New(vehicle.DefaultParams(), st)
	if err != nil {
		t.Fatal(err)
	}
	return &Actor{Name: name, Dyn: dyn, Ctrl: ctrl}
}

func TestNewValidation(t *testing.T) {
	r, err := road.BuildMap(road.MapStraight, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	egoDyn, _ := vehicle.New(vehicle.DefaultParams(), vehicle.State{V: 10})
	ego := &Actor{Name: "ego", Dyn: egoDyn}
	if _, err := New(Config{Ego: ego}); err == nil {
		t.Error("missing road should fail")
	}
	if _, err := New(Config{Road: r}); err == nil {
		t.Error("missing ego should fail")
	}
	if _, err := New(Config{Road: r, Ego: ego, Step: -1}); err == nil {
		t.Error("negative step should fail")
	}
	noCtrl := &Actor{Name: "x", Dyn: egoDyn}
	if _, err := New(Config{Road: r, Ego: ego, Actors: []*Actor{noCtrl}}); err == nil {
		t.Error("actor without controller should fail")
	}
}

func TestStepAdvancesTimeAndActors(t *testing.T) {
	ctrl := &constantCtrl{}
	lead := makeActor(t, "lead", vehicle.State{S: 100, V: 15}, ctrl)
	w := testWorld(t, lead)
	if w.StepSize() != DefaultStep {
		t.Errorf("step size = %v", w.StepSize())
	}
	for i := 0; i < 100; i++ {
		w.Step(vehicle.Command{})
	}
	if !near(w.Time(), 1.0, 1e-9) {
		t.Errorf("time = %v", w.Time())
	}
	if ctrl.n != 100 {
		t.Errorf("controller called %d times", ctrl.n)
	}
	if lead.State().S <= 100 {
		t.Error("lead should have moved forward")
	}
}

func TestLeadSelection(t *testing.T) {
	behind := makeActor(t, "behind", vehicle.State{S: 10, V: 15}, &constantCtrl{})
	near_ := makeActor(t, "near", vehicle.State{S: 80, V: 15}, &constantCtrl{})
	far := makeActor(t, "far", vehicle.State{S: 200, V: 15}, &constantCtrl{})
	otherLane := makeActor(t, "side", vehicle.State{S: 60, D: 3.5, V: 15}, &constantCtrl{})
	w := testWorld(t, behind, far, near_, otherLane)

	lead, gap, ok := w.Lead()
	if !ok {
		t.Fatal("expected a lead")
	}
	if lead.Name != "near" {
		t.Errorf("lead = %s, want near", lead.Name)
	}
	wantGap := (80.0 - 30.0) - vehicle.DefaultParams().Length
	if !near(gap, wantGap, 1e-9) {
		t.Errorf("gap = %v, want %v", gap, wantGap)
	}
}

func TestLeadWithinWiderCone(t *testing.T) {
	offset := makeActor(t, "offset", vehicle.State{S: 70, D: 2.8, V: 15}, &constantCtrl{})
	w := testWorld(t, offset)
	if _, _, ok := w.Lead(); ok {
		t.Error("camera cone should not see a 2.8 m offset vehicle")
	}
	if _, _, ok := w.RadarLead(); !ok {
		t.Error("radar cone should see it")
	}
}

func TestNoLead(t *testing.T) {
	w := testWorld(t)
	if _, _, ok := w.Lead(); ok {
		t.Error("expected no lead")
	}
}

func TestCollisionDetection(t *testing.T) {
	overlapping := makeActor(t, "x", vehicle.State{S: 33, V: 0}, &constantCtrl{})
	w := testWorld(t, overlapping)
	if !w.CollisionWith(overlapping) {
		t.Error("expected collision with overlapping actor")
	}
	if w.AnyCollision() != overlapping {
		t.Error("AnyCollision should find it")
	}
	farAway := makeActor(t, "far", vehicle.State{S: 100, V: 0}, &constantCtrl{})
	w2 := testWorld(t, farAway)
	if w2.AnyCollision() != nil {
		t.Error("expected no collision")
	}
	sideBySide := makeActor(t, "side", vehicle.State{S: 30, D: 3.5, V: 0}, &constantCtrl{})
	w3 := testWorld(t, sideBySide)
	if w3.AnyCollision() != nil {
		t.Error("adjacent lane should not collide")
	}
}

func TestEgoOffRoad(t *testing.T) {
	w := testWorld(t)
	if w.EgoOffRoad() {
		t.Error("centered ego should be on road")
	}
	st := w.Ego().Dyn.State()
	st.D = 6.5
	w.Ego().Dyn.SetState(st)
	if !w.EgoOffRoad() {
		t.Error("ego at 6.5 m should be off road")
	}
}

func TestEgoOutOfLane(t *testing.T) {
	w := testWorld(t)
	if w.EgoOutOfLane(0) {
		t.Error("centered ego should be in lane")
	}
	st := w.Ego().Dyn.State()
	st.D = 1.2 // body edge at 1.2+0.925 > 1.75
	w.Ego().Dyn.SetState(st)
	if !w.EgoOutOfLane(0) {
		t.Error("offset ego should be crossing the line")
	}
}

func near(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// TestLeadCacheInvalidation: the cached lead scan follows every way the
// world state changes (SetState, Step, Reset) and always equals what a
// scan of the current state finds.
func TestLeadCacheInvalidation(t *testing.T) {
	length := vehicle.DefaultParams().Length
	lead := makeActor(t, "lead", vehicle.State{S: 80, V: 15}, &constantCtrl{})
	w := testWorld(t, lead)
	check := func(when string, wantOK bool, wantGap float64, wantRadar bool) {
		t.Helper()
		a, gap, ok := w.Lead()
		if ok != wantOK || (ok && (a != lead || !near(gap, wantGap, 1e-9))) {
			t.Errorf("%s: Lead() = %v, %v, %v; want ok=%v gap=%v", when, a, gap, ok, wantOK, wantGap)
		}
		if _, _, ok := w.RadarLead(); ok != wantRadar {
			t.Errorf("%s: RadarLead ok = %v, want %v", when, ok, wantRadar)
		}
	}
	check("start", true, 50-length, true)

	st := lead.State()
	st.S = 90
	lead.Dyn.SetState(st)
	check("after lead SetState", true, 60-length, true)

	st.D = 2.8 // outside the camera cone, inside the radar's
	lead.Dyn.SetState(st)
	check("after lateral SetState", false, 0, true)

	es := w.Ego().State()
	es.S = 100 // ego passes the lead
	w.Ego().Dyn.SetState(es)
	check("after ego SetState", false, 0, false)

	es.S = 30
	w.Ego().Dyn.SetState(es)
	st.D = 0
	lead.Dyn.SetState(st)
	check("restored", true, 60-length, true)
	w.Step(vehicle.Command{})
	wantGap := lead.State().S - w.Ego().State().S - length
	check("after Step", true, wantGap, true)

	// Fresh vehicles restart at the same revisions, so only Reset itself
	// can tell the new world from the cached one.
	fresh := testWorld(t, makeActor(t, "first", vehicle.State{S: 80, V: 15}, &constantCtrl{}))
	fresh.Lead()
	egoDyn, err := vehicle.New(vehicle.DefaultParams(), vehicle.State{S: 30, V: 20})
	if err != nil {
		t.Fatal(err)
	}
	other := makeActor(t, "other", vehicle.State{S: 150, V: 15}, &constantCtrl{})
	cfg := Config{Road: fresh.Road(), Ego: &Actor{Name: "ego", Dyn: egoDyn}, Actors: []*Actor{other}}
	if err := fresh.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if a, _, ok := fresh.Lead(); !ok || a != other {
		t.Errorf("after Reset: Lead() = %v, %v; want other", a, ok)
	}
}
