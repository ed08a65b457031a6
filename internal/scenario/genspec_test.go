package scenario

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"adasim/internal/road"
	"adasim/internal/vehicle"
	"adasim/internal/world"
)

// genCutIn is a generated analogue of S5 with adjustable cut-in timing.
func genCutIn(triggerGap float64) Spec {
	return Spec{
		ID:         IDGenerated,
		EgoSpeed:   22,
		InitialGap: 60,
		SpeedLimit: 22,
		Generated: &GenSpec{Actors: []ActorSpec{
			{Name: "lead", Gap: 60, Speed: 13, Behavior: BehaviorSpec{InitialSpeed: 13}},
			{Name: "cutin", Gap: 38, LaneOffset: 3.5, Speed: 13, Behavior: BehaviorSpec{
				InitialSpeed:     13,
				LaneTrigger:      Trigger{Kind: TriggerEgoGapBelow, Value: triggerGap},
				TargetLaneOffset: 0,
				LaneChangeTime:   3,
			}},
		}},
	}
}

func TestGeneratedSpecValidates(t *testing.T) {
	if err := genCutIn(30).Validate(); err != nil {
		t.Fatalf("valid generated spec rejected: %v", err)
	}
	bad := map[string]func(*Spec){
		"wrong id":        func(s *Spec) { s.ID = S1 },
		"no actors":       func(s *Spec) { s.Generated.Actors = nil },
		"unnamed actor":   func(s *Spec) { s.Generated.Actors[0].Name = "" },
		"zero gap":        func(s *Spec) { s.Generated.Actors[0].Gap = 0 },
		"nan gap":         func(s *Spec) { s.Generated.Actors[0].Gap = math.NaN() },
		"inf speed":       func(s *Spec) { s.Generated.Actors[0].Speed = math.Inf(1) },
		"nan lane offset": func(s *Spec) { s.Generated.Actors[1].LaneOffset = math.NaN() },
		"nan trigger":     func(s *Spec) { s.Generated.Actors[1].Behavior.LaneTrigger.Value = math.NaN() },
		"bad trigger kind": func(s *Spec) {
			s.Generated.Actors[1].Behavior.Segments = []SpeedSegment{{Trigger: Trigger{Kind: 42, Value: 1}}}
		},
		"zero-kind segment": func(s *Spec) {
			s.Generated.Actors[1].Behavior.Segments = []SpeedSegment{{Speed: 5}}
		},
		"negative segment decel": func(s *Spec) {
			s.Generated.Actors[1].Behavior.Segments = []SpeedSegment{
				{Trigger: Trigger{Kind: TriggerAtTime, Value: 1}, Speed: 5, Decel: -1}}
		},
		"nan segment speed": func(s *Spec) {
			s.Generated.Actors[1].Behavior.Segments = []SpeedSegment{
				{Trigger: Trigger{Kind: TriggerAtTime, Value: 1}, Speed: math.NaN(), Decel: 1}}
		},
		"nan segment decel": func(s *Spec) {
			s.Generated.Actors[1].Behavior.Segments = []SpeedSegment{
				{Trigger: Trigger{Kind: TriggerAtTime, Value: 1}, Speed: 5, Decel: math.NaN()}}
		},
		"nan lane change time": func(s *Spec) { s.Generated.Actors[1].Behavior.LaneChangeTime = math.NaN() },
		"too many actors": func(s *Spec) {
			for i := 0; i <= MaxGeneratedActors; i++ {
				s.Generated.Actors = append(s.Generated.Actors,
					ActorSpec{Name: "x", Gap: 10, Speed: 1, Behavior: BehaviorSpec{InitialSpeed: 1}})
			}
		},
	}
	for name, mutate := range bad {
		s := genCutIn(30)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
}

func TestGeneratedSpecJSONRoundTrip(t *testing.T) {
	s := genCutIn(30)
	s.Generated.Actors[0].Behavior.Segments = []SpeedSegment{
		{Trigger: Trigger{Kind: TriggerAtTime, Value: 4}, Speed: 17},
		{Trigger: Trigger{Kind: TriggerEgoGapBelow, Value: 45}, Speed: 0, Decel: 7},
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, s)
	}
}

func TestBuildGeneratedActors(t *testing.T) {
	r, err := road.BuildMap(road.MapCurvy, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := Build(genCutIn(30), r, vehicle.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(setup.Actors) != 2 {
		t.Fatalf("actor count = %d, want 2", len(setup.Actors))
	}
	lead, cutin := setup.Actors[0], setup.Actors[1]
	gap := lead.State().S - setup.Ego.State().S - vehicle.DefaultParams().Length
	if math.Abs(gap-60) > 1e-9 {
		t.Errorf("lead gap = %v, want 60", gap)
	}
	if cutin.State().D != 3.5 {
		t.Errorf("cutin lane offset = %v, want 3.5", cutin.State().D)
	}
}

// TestGenBehaviorPiecewiseProfile drives a three-phase profile (cruise,
// timed acceleration, gap-triggered full stop) and checks each phase
// lands on its target.
func TestGenBehaviorPiecewiseProfile(t *testing.T) {
	spec := Spec{
		ID: IDGenerated, EgoSpeed: 13, InitialGap: 150, SpeedLimit: 20,
		Generated: &GenSpec{Actors: []ActorSpec{{
			Name: "lead", Gap: 150, Speed: 13,
			Behavior: BehaviorSpec{
				InitialSpeed: 13,
				Segments: []SpeedSegment{
					{Trigger: Trigger{Kind: TriggerAtTime, Value: 5}, Speed: 18},
					{Trigger: Trigger{Kind: TriggerEgoGapBelow, Value: 55}, Speed: 0, Decel: 7},
				},
			},
		}}},
	}
	r, err := road.BuildMap(road.MapCurvy, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := Build(spec, r, vehicle.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.New(world.Config{Road: r, Ego: setup.Ego, Actors: setup.Actors})
	if err != nil {
		t.Fatal(err)
	}
	lead := setup.Actors[0]
	for i := 0; i < 400; i++ { // 4 s: still cruising
		w.Step(vehicle.Command{})
	}
	if v := lead.State().V; math.Abs(v-13) > 0.5 {
		t.Errorf("phase 1 speed = %v, want ~13", v)
	}
	for i := 0; i < 800; i++ { // 12 s: accelerated to 18
		w.Step(vehicle.Command{})
	}
	if v := lead.State().V; math.Abs(v-18) > 0.5 {
		t.Errorf("phase 2 speed = %v, want ~18", v)
	}
	// Accelerate the ego to close the gap and fire the stop segment.
	for i := 0; i < 6000 && lead.State().V > 0.2; i++ {
		w.Step(vehicle.Command{Accel: 1.5})
	}
	if v := lead.State().V; v > 0.2 {
		t.Errorf("phase 3 speed = %v, want ~0", v)
	}
}

// TestGenBehaviorMatchesLeadBehaviorCruise pins the generated controller
// to the scripted one on the shared control law: a constant-cruise
// profile must command identically to LeadBehavior.
func TestGenBehaviorMatchesLeadBehaviorCruise(t *testing.T) {
	r, err := road.BuildMap(road.MapCurvy, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	dynA, _ := vehicle.New(vehicle.DefaultParams(), vehicle.State{S: 100, V: 13})
	dynB, _ := vehicle.New(vehicle.DefaultParams(), vehicle.State{S: 100, V: 13})
	egoDyn, _ := vehicle.New(vehicle.DefaultParams(), vehicle.State{S: 30, V: 22})
	scripted := &LeadBehavior{InitialSpeed: 13}
	generated := NewGenBehavior(BehaviorSpec{InitialSpeed: 13}, 0)
	w, err := world.New(world.Config{
		Road: r,
		Ego:  &world.Actor{Name: "ego", Dyn: egoDyn},
		Actors: []*world.Actor{
			{Name: "a", Dyn: dynA, Ctrl: scripted},
			{Name: "b", Dyn: dynB, Ctrl: generated},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		w.Step(vehicle.Command{})
		a, b := dynA.State(), dynB.State()
		if a.V != b.V || a.S != b.S || a.D != b.D {
			t.Fatalf("step %d: generated cruise diverged from scripted: %+v vs %+v", i, a, b)
		}
	}
}
