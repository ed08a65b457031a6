package core

import (
	"testing"

	"adasim/internal/fi"
	"adasim/internal/metrics"
	"adasim/internal/scenario"
)

// TestMonitorPreventsRDAttack verifies the runtime monitor catches the
// tiered RD attack's discontinuities and brakes conservatively.
func TestMonitorPreventsRDAttack(t *testing.T) {
	opts := Options{
		Scenario:      scenario.DefaultSpec(scenario.S1, 60),
		Fault:         fi.DefaultParams(fi.TargetRelDistance),
		Interventions: InterventionSet{Monitor: true},
		Seed:          1,
		Steps:         6000,
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.MonitorAt < 0 {
		t.Fatal("monitor never activated under the RD attack")
	}
	if res.Outcome.Accident == metrics.AccidentA1 {
		t.Errorf("monitor should have prevented the forward collision (activated t=%.1f, accident t=%.1f)",
			res.Outcome.MonitorAt, res.Outcome.AccidentAt)
	}
}

// TestMonitorBenignQuiet verifies the monitor does not fire on fault-free
// driving.
func TestMonitorBenignQuiet(t *testing.T) {
	opts := Options{
		Scenario:      scenario.DefaultSpec(scenario.S1, 60),
		Interventions: InterventionSet{Monitor: true},
		Seed:          2,
		Steps:         6000,
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Accident != metrics.AccidentNone {
		t.Errorf("benign run with monitor crashed: %v", res.Outcome.Accident)
	}
	if res.Outcome.MonitorAt >= 0 {
		t.Errorf("monitor false positive at t=%.1f", res.Outcome.MonitorAt)
	}
}

// TestLeadRemovalAttack verifies the extension attack runs end-to-end and
// is dangerous without mitigation.
func TestLeadRemovalAttack(t *testing.T) {
	opts := Options{
		Scenario:      scenario.DefaultSpec(scenario.S1, 60),
		ExtendedFault: fi.TargetLeadRemoval,
		Seed:          1,
		Steps:         6000,
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.FaultFirstAt < 0 {
		t.Fatal("extension fault never activated")
	}
	if res.Outcome.Accident != metrics.AccidentA1 {
		t.Errorf("lead removal should cause a forward collision, got %v", res.Outcome.Accident)
	}
}

// TestStealthyAttackEvadesJumpCheck: the stealthy RD attack must not be
// caught by the monitor's discontinuity check alone, but the windowed
// kinematic check should still flag it eventually.
func TestStealthyAttackOutcome(t *testing.T) {
	bare := Options{
		Scenario:      scenario.DefaultSpec(scenario.S1, 60),
		ExtendedFault: fi.TargetStealthyDistance,
		Seed:          1,
		Steps:         8000,
	}
	res, err := Run(bare)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.FaultFirstAt < 0 {
		t.Fatal("stealthy fault never activated")
	}
	withMon := bare
	withMon.Interventions = InterventionSet{Monitor: true}
	res2, err := Run(withMon)
	if err != nil {
		t.Fatal(err)
	}
	// The monitor's windowed kinematic check should notice the drift.
	if res2.Outcome.MonitorAt < 0 {
		t.Log("monitor did not flag the stealthy attack (documented evasion)")
	}
}

// TestLaneShiftAttackCausesDrift verifies the lane-shift extension drags
// the vehicle sideways.
func TestLaneShiftAttackCausesDrift(t *testing.T) {
	opts := Options{
		Scenario:      scenario.DefaultSpec(scenario.S1, 230),
		ExtendedFault: fi.TargetLaneShift,
		Seed:          1,
		Steps:         5000,
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.FaultFirstAt < 0 {
		t.Fatal("lane-shift fault never activated")
	}
	if !res.Outcome.HazardH2 && res.Outcome.Accident != metrics.AccidentA2 {
		t.Error("lane shift should at least cause an H2 hazard")
	}
}

// TestCombinedClassicAndExtendedFault checks that both engines can run in
// the same simulation.
func TestCombinedClassicAndExtendedFault(t *testing.T) {
	opts := Options{
		Scenario:      scenario.DefaultSpec(scenario.S1, 60),
		Fault:         fi.DefaultParams(fi.TargetCurvature),
		ExtendedFault: fi.TargetStealthyDistance,
		Seed:          1,
		Steps:         4000,
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.FaultFirstAt < 0 {
		t.Error("combined faults never activated")
	}
}
