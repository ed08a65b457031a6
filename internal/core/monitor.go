package core

import (
	"math"

	"adasim/internal/aebs"
	"adasim/internal/driver"
	"adasim/internal/metrics"
	"adasim/internal/perception"
	"adasim/internal/safety"
)

// observe runs the hazard/accident monitors for the step that just
// executed and records the trace sample.
func (p *Platform) observe(t float64, out perception.Output, res safety.Result,
	faultActive bool, aebDec aebs.Decision, iv driver.Intervention,
	mlActive, monitorActive bool) {

	es := p.world.Ego().State()
	params := p.world.Ego().Dyn.Params()
	lead, gap, leadOK := p.world.Lead()

	// True TTC.
	ttc := math.Inf(1)
	if leadOK {
		rs := es.V - lead.State().V
		if rs > 0 {
			ttc = gap / rs
		}
	}

	// Body-edge distance to the nearest lane line.
	left, right := p.road.LaneLineDistances(es.D)
	lineMin := min(left, right) - params.Width/2

	// Benign-performance metrics.
	if ttc < p.outcome.MinTTC {
		p.outcome.MinTTC = ttc
	}
	tfcw := p.aebsCfg.ReactTime + es.V/p.aebsCfg.DriverDecel
	if tfcw < p.outcome.MinTFCW {
		p.outcome.MinTFCW = tfcw
	}
	if lineMin < p.outcome.MinLaneLineDist {
		p.outcome.MinLaneLineDist = lineMin
	}
	brakeFrac := max(0, -res.Cmd.Accel) / params.MaxBrake
	if brakeFrac > p.outcome.HardestBrake {
		p.outcome.HardestBrake = brakeFrac
	}
	if leadOK && gap < 60 && es.V > 2 && math.Abs(es.V-lead.State().V) < 0.75 {
		p.followSum += gap
		p.followCount++
	}

	// Hazards.
	if leadOK && gap < params.Length && p.outcome.H1At < 0 {
		p.outcome.HazardH1 = true
		p.outcome.H1At = t
	}
	if lineMin < 0.1 && p.outcome.H2At < 0 {
		p.outcome.HazardH2 = true
		p.outcome.H2At = t
	}

	// Accidents.
	if p.outcome.Accident == metrics.AccidentNone {
		if hit := p.world.AnyCollision(); hit != nil {
			hs := hit.State()
			forward := hs.S >= es.S && math.Abs(hs.D-es.D) < p.road.LaneWidth()*0.5
			if forward {
				p.outcome.Accident = metrics.AccidentA1
			} else {
				p.outcome.Accident = metrics.AccidentA2
			}
			p.outcome.AccidentAt = t
		} else if p.egoOutOfOwnLane(es.D) || p.world.EgoOffRoad() {
			p.outcome.Accident = metrics.AccidentA2
			p.outcome.AccidentAt = t
		}
		if p.outcome.Accident != metrics.AccidentNone && !p.opts.ContinueAfterAccident {
			p.finished = true
		}
	}

	// Route end: stop before running off the built map.
	if es.S > p.road.Length()-100 {
		p.finished = true
	}

	if p.trace != nil {
		perceivedRD := -1.0
		if out.LeadValid {
			perceivedRD = out.LeadDistance
		}
		p.trace.Append(metrics.Sample{
			T:             t,
			EgoS:          es.S,
			EgoD:          es.D,
			EgoV:          es.V,
			EgoAccel:      es.Accel,
			LeadValid:     leadOK,
			LeadGap:       gap,
			PerceivedRD:   perceivedRD,
			TTC:           ttc,
			LaneLineMin:   lineMin,
			CmdAccel:      res.Cmd.Accel,
			CmdCurvature:  res.Cmd.Curvature,
			LongSource:    res.LongSource,
			LatSource:     res.LatSource,
			FaultActive:   faultActive,
			FCW:           aebDec.FCW,
			AEBBraking:    aebDec.Braking(),
			DriverBrake:   iv.BrakeActive,
			DriverSteer:   iv.SteerActive,
			MLActive:      mlActive,
			MonitorActive: monitorActive,
		})
	}
}

// egoOutOfOwnLane reports whether the ego centre has crossed a lane line
// of its original (reference) lane — the paper's A2 "driving out of the
// lane" condition.
func (p *Platform) egoOutOfOwnLane(d float64) bool {
	return math.Abs(d) > p.road.LaneWidth()/2
}

// finalize fills run-level summary fields and releases the run's ML
// batch-group membership so hub peers stop waiting for it.
func (p *Platform) finalize() {
	p.finished = true
	p.outcome.Steps = p.step
	p.outcome.Duration = p.world.Time()
	if p.followCount > 0 {
		p.outcome.FollowingDistance = p.followSum / float64(p.followCount)
	}
	if p.mit != nil {
		p.mit.EndRun()
	}
}
