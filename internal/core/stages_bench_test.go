package core

import (
	"testing"

	"adasim/internal/aebs"
	"adasim/internal/driver"
	"adasim/internal/fi"
	"adasim/internal/mlmit"
	"adasim/internal/nn"
	"adasim/internal/perception"
	"adasim/internal/safety"
	"adasim/internal/scenario"
	"adasim/internal/vehicle"
	"adasim/internal/world"
)

// BenchmarkStepStages is the per-stage ledger of Platform.Step: one
// sub-bench per stage, each timing that stage alone on a platform
// stepped to mid-run (10 s into S1 under the mixed attack, with every
// intervention on, an untrained ML network included). A stage's inputs
// are the ones Step computed for that state, so the sub-benches sum to
// roughly one BenchmarkSimulationStep plus the ML stage.
//
// Stages that read the world repeat on an unchanged state, so their lead
// lookups (perception, aebs, observe) hit the world's cache; "lead" times
// the one scan a step pays, with SetState standing in for the move that
// makes the cache stale (at the cost of one Sincos). The driver and ML
// stages take the lead Step found. "world" steps the world on from the
// mid-run state.
func BenchmarkStepStages(b *testing.B) {
	net, err := nn.NewNetwork(mlmit.FeatureDim, []int{8, 4}, mlmit.OutputDim, 5)
	if err != nil {
		b.Fatal(err)
	}
	// midRun returns a platform stepped to mid-run and the inputs each
	// stage sees in the step that follows.
	type inputs struct {
		out    perception.Output
		opCmd  vehicle.Command
		lead   *world.Actor
		gap    float64
		leadOK bool
		aebDec aebs.Decision
		arb    safety.Inputs
		res    safety.Result
	}
	midRun := func(b *testing.B) (*Platform, inputs) {
		b.Helper()
		p, err := NewPlatform(Options{
			Scenario: scenario.DefaultSpec(scenario.S1, 60),
			Fault:    fi.DefaultParams(fi.TargetMixed),
			Interventions: InterventionSet{
				Driver: true, SafetyCheck: true, AEB: aebs.SourceIndependent,
				Monitor: true, ML: true, MLNet: net,
			},
			Seed:                  1,
			Steps:                 1 << 30,
			ContinueAfterAccident: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			p.Step()
		}
		var in inputs
		t, dt := p.world.Time(), p.world.StepSize()
		in.out = p.percep.Perceive(p.world)
		p.injector.Apply(t, &in.out)
		in.opCmd = p.opctl.Update(in.out, dt)
		in.lead, in.gap, in.leadOK = p.world.Lead()
		monDec := p.mon.Update(t, in.out, in.opCmd, dt)
		in.aebDec = p.aeb.Update(t, p.aebInputs(p.world.Ego().State(), in.out))
		in.arb = safety.Inputs{
			ADAS: in.opCmd, ML: in.opCmd, Monitor: monDec.Override, MonitorActive: monDec.Active,
			AEB: in.aebDec, DT: dt,
		}
		in.res = p.arbiter.Arbitrate(in.arb)
		return p, in
	}
	stages := []struct {
		name string
		run  func(p *Platform, in *inputs)
	}{
		{"perception", func(p *Platform, in *inputs) { p.percep.Perceive(p.world) }},
		{"fault", func(p *Platform, in *inputs) {
			out := in.out
			p.injector.Apply(p.world.Time(), &out)
		}},
		{"openpilot", func(p *Platform, in *inputs) { p.opctl.Update(in.out, p.world.StepSize()) }},
		{"monitor", func(p *Platform, in *inputs) {
			p.mon.Update(p.world.Time(), in.out, in.opCmd, p.world.StepSize())
		}},
		{"lead", func(p *Platform, in *inputs) {
			ego := p.world.Ego().Dyn
			ego.SetState(ego.State())
			p.world.Lead()
			p.world.RadarLead()
		}},
		{"aebs", func(p *Platform, in *inputs) {
			p.aeb.Update(p.world.Time(), p.aebInputs(p.world.Ego().State(), in.out))
		}},
		{"driver", func(p *Platform, in *inputs) {
			es := p.world.Ego().State()
			p.drv.Update(p.driverObservation(p.world.Time(), es, in.gap, in.leadOK, in.lead, in.aebDec.FCW), p.world.StepSize())
		}},
		{"ml", func(p *Platform, in *inputs) {
			p.mit.Update(p.world.Time(), p.mlFrame(p.world.Ego().State(), in.gap, in.leadOK), in.opCmd)
		}},
		{"arbitration", func(p *Platform, in *inputs) { p.arbiter.Arbitrate(in.arb) }},
		{"world", func(p *Platform, in *inputs) { p.world.Step(in.res.Cmd) }},
		{"observe", func(p *Platform, in *inputs) {
			p.observe(p.world.Time(), in.out, in.res, true, in.aebDec, driver.Intervention{}, false, false)
		}},
	}
	for _, s := range stages {
		b.Run(s.name, func(b *testing.B) {
			p, in := midRun(b)
			// Every 1000 iterations the vehicles go back to the mid-run
			// state, so "world" keeps timing mid-run physics rather than
			// wherever millions of steps under one command lead.
			vehicles := append([]*world.Actor{p.world.Ego()}, p.world.Actors()...)
			states := make([]vehicle.State, len(vehicles))
			for i, v := range vehicles {
				states[i] = v.State()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1000 == 999 {
					b.StopTimer()
					for j, v := range vehicles {
						v.Dyn.SetState(states[j])
					}
					b.StartTimer()
				}
				s.run(p, &in)
			}
		})
	}
}
