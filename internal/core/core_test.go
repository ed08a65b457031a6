package core

import (
	"math"
	"testing"

	"adasim/internal/aebs"
	"adasim/internal/driver"
	"adasim/internal/fi"
	"adasim/internal/metrics"
	"adasim/internal/mlmit"
	"adasim/internal/nn"
	"adasim/internal/scenario"
)

// shortOpts returns options for a reduced-length run (40 s), enough for
// the 60 m initial gap dynamics to fully play out.
func shortOpts(id scenario.ID, gap float64) Options {
	return Options{
		Scenario: scenario.DefaultSpec(id, gap),
		Seed:     1,
		Steps:    4000,
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Error("empty options should fail")
	}
	bad := shortOpts(scenario.S1, 60)
	bad.Interventions.ML = true // without a network
	if _, err := Run(bad); err == nil {
		t.Error("ML without network should fail")
	}
	neg := shortOpts(scenario.S1, 60)
	neg.FrictionScale = -1
	if _, err := Run(neg); err == nil {
		t.Error("negative friction scale should fail")
	}
}

func TestBenignRunCompletes(t *testing.T) {
	res, err := Run(shortOpts(scenario.S1, 60))
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcome
	if o.Accident != metrics.AccidentNone {
		t.Fatalf("benign S1 should be accident-free, got %v at %v", o.Accident, o.AccidentAt)
	}
	if o.FollowingDistance < 20 || o.FollowingDistance > 45 {
		t.Errorf("following distance = %v, want a ~2 s gap", o.FollowingDistance)
	}
	if o.HardestBrake <= 0.1 || o.HardestBrake > 1 {
		t.Errorf("hardest brake = %v", o.HardestBrake)
	}
	if math.IsInf(o.MinTTC, 1) {
		t.Error("min TTC never computed")
	}
	if o.Steps == 0 || o.Duration == 0 {
		t.Error("run accounting missing")
	}
}

func TestRDAttackCausesForwardCollision(t *testing.T) {
	opts := shortOpts(scenario.S1, 60)
	opts.Fault = fi.DefaultParams(fi.TargetRelDistance)
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Accident != metrics.AccidentA1 {
		t.Fatalf("RD attack should end in A1, got %v", res.Outcome.Accident)
	}
	if res.Outcome.FaultFirstAt < 0 {
		t.Error("fault activation not recorded")
	}
	if !res.Outcome.HazardH1 {
		t.Error("H1 should precede the collision")
	}
}

func TestCurvatureAttackCausesLaneDeparture(t *testing.T) {
	opts := shortOpts(scenario.S1, 60)
	opts.Fault = fi.DefaultParams(fi.TargetCurvature)
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Accident != metrics.AccidentA2 {
		t.Fatalf("curvature attack should end in A2, got %v", res.Outcome.Accident)
	}
	if !res.Outcome.HazardH2 {
		t.Error("H2 should precede the lane departure")
	}
}

func TestAEBIndependentPreventsRDAttack(t *testing.T) {
	opts := shortOpts(scenario.S1, 60)
	opts.Fault = fi.DefaultParams(fi.TargetRelDistance)
	opts.Interventions = InterventionSet{AEB: aebs.SourceIndependent}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Accident != metrics.AccidentNone {
		t.Fatalf("AEB-independent should prevent, got %v", res.Outcome.Accident)
	}
	if res.Outcome.AEBBrakeAt < 0 {
		t.Error("AEB should have braked")
	}
	if res.Outcome.FCWAt < 0 {
		t.Error("FCW should have fired")
	}
}

func TestAEBCompromisedFailsRDAttack(t *testing.T) {
	opts := shortOpts(scenario.S1, 60)
	opts.Fault = fi.DefaultParams(fi.TargetRelDistance)
	opts.Interventions = InterventionSet{AEB: aebs.SourceCompromised}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Accident != metrics.AccidentA1 {
		t.Fatalf("compromised AEB should not prevent the RD attack, got %v",
			res.Outcome.Accident)
	}
}

func TestDriverBrakesUnderRDAttack(t *testing.T) {
	opts := shortOpts(scenario.S1, 60)
	opts.Fault = fi.DefaultParams(fi.TargetRelDistance)
	opts.Interventions = InterventionSet{Driver: true}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.DriverBrakeAt < 0 {
		t.Error("driver should have braked under the RD attack")
	}
}

func TestSafetyCheckBlocksCommands(t *testing.T) {
	opts := shortOpts(scenario.S1, 60)
	opts.Interventions = InterventionSet{SafetyCheck: true}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The benign approach commands braking beyond -3.5 m/s^2, which the
	// checker clamps.
	if res.CheckerBlocked == 0 {
		t.Error("safety checker should have modified some commands")
	}
}

func TestDeterminism(t *testing.T) {
	opts := shortOpts(scenario.S3, 60)
	opts.Fault = fi.DefaultParams(fi.TargetMixed)
	opts.Interventions = InterventionSet{Driver: true}
	r1, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Outcome != r2.Outcome {
		t.Errorf("same seed should give identical outcomes:\n%+v\n%+v", r1.Outcome, r2.Outcome)
	}
	opts.Seed = 2
	r3, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Outcome == r1.Outcome {
		t.Error("different seed should change the run (jitter/noise)")
	}
}

func TestTraceRecording(t *testing.T) {
	opts := shortOpts(scenario.S1, 60)
	opts.RecordTrace = true
	opts.Steps = 500
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() != 500 {
		t.Fatalf("trace missing or wrong length")
	}
	s := res.Trace.Samples[100]
	if s.T <= 0 || s.EgoV <= 0 {
		t.Errorf("sample looks empty: %+v", s)
	}
}

func TestMLFrameRecording(t *testing.T) {
	opts := shortOpts(scenario.S1, 60)
	opts.RecordMLFrames = true
	opts.Steps = 300
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MLFrames) != 300 {
		t.Fatalf("ml frames = %d", len(res.MLFrames))
	}
	p := res.MLFrames[200]
	if p.Frame.EgoSpeed <= 0 || p.Frame.LeadDistance <= 0 {
		t.Errorf("frame looks empty: %+v", p.Frame)
	}
}

func TestMLInterventionRuns(t *testing.T) {
	net, err := nn.NewNetwork(mlmit.FeatureDim, []int{4}, mlmit.OutputDim, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := shortOpts(scenario.S1, 60)
	opts.Interventions = InterventionSet{ML: true, MLNet: net}
	if _, err := Run(opts); err != nil {
		t.Fatalf("ML run failed: %v", err)
	}
}

func TestStepAPI(t *testing.T) {
	p, err := NewPlatform(shortOpts(scenario.S1, 60))
	if err != nil {
		t.Fatal(err)
	}
	if p.Finished() {
		t.Error("fresh platform should not be finished")
	}
	p.Step()
	if got := p.World().Time(); math.Abs(got-DefaultStepSize) > 1e-9 {
		t.Errorf("time after one step = %v", got)
	}
	res := p.Run()
	if !p.Finished() {
		t.Error("platform should be finished after Run")
	}
	if res.Outcome.Steps == 0 {
		t.Error("no steps recorded")
	}
	p.Step() // must be a no-op
	if p.World().Time() != res.Outcome.Duration {
		t.Error("stepping a finished platform should do nothing")
	}
}

func TestStopOnAccidentVsContinue(t *testing.T) {
	opts := shortOpts(scenario.S1, 60)
	opts.Fault = fi.DefaultParams(fi.TargetRelDistance)
	stop, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ContinueAfterAccident = true
	cont, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Outcome.Accident == metrics.AccidentNone {
		t.Skip("no accident to compare")
	}
	if cont.Outcome.Steps <= stop.Outcome.Steps {
		t.Errorf("continue run should be longer: %d vs %d",
			cont.Outcome.Steps, stop.Outcome.Steps)
	}
}

func TestDriverReactionTimeAffectsOutcome(t *testing.T) {
	base := shortOpts(scenario.S1, 60)
	base.Fault = fi.DefaultParams(fi.TargetCurvature)
	fast := driver.DefaultConfig()
	fast.ReactionTime = 1.0
	base.Interventions = InterventionSet{Driver: true, DriverConfig: &fast}
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Accident != metrics.AccidentNone {
		t.Errorf("1.0 s reaction driver should prevent the S1-60 curvature attack, got %v",
			res.Outcome.Accident)
	}
}

func TestFrictionScaleChangesPhysics(t *testing.T) {
	dry := shortOpts(scenario.S4, 60)
	icy := dry
	icy.FrictionScale = 0.25
	d, err := Run(dry)
	if err != nil {
		t.Fatal(err)
	}
	i, err := Run(icy)
	if err != nil {
		t.Fatal(err)
	}
	if d.Outcome == i.Outcome {
		t.Error("friction change should alter the outcome record")
	}
}
