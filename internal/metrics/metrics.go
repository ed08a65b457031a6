// Package metrics defines the per-run trace records, hazard/accident
// outcome classification, and the campaign-level statistics (prevention
// rates, mitigation times, trigger rates) reported in the paper's tables.
package metrics

import (
	"math"

	"adasim/internal/safety"
)

// Accident classifies the terminal accident of a run (Section IV-C).
type Accident uint8

// Accident classes.
const (
	// AccidentNone: the run completed without an accident.
	AccidentNone Accident = iota
	// AccidentA1: forward collision with the lead vehicle.
	AccidentA1
	// AccidentA2: driving out of the lane or colliding with side
	// vehicles.
	AccidentA2
)

// String returns the accident class name.
func (a Accident) String() string {
	switch a {
	case AccidentNone:
		return "none"
	case AccidentA1:
		return "A1"
	case AccidentA2:
		return "A2"
	default:
		return "unknown"
	}
}

// Sample is one recorded simulation step.
type Sample struct {
	T float64 // simulation time (s)

	EgoS     float64 // ego arc length (m)
	EgoD     float64 // ego lateral offset (m)
	EgoV     float64 // ego speed (m/s)
	EgoAccel float64 // achieved acceleration (m/s^2)

	LeadValid   bool    // ground truth: a lead exists in lane ahead
	LeadGap     float64 // true bumper-to-bumper gap (m)
	PerceivedRD float64 // perception (possibly attacked) RD; -1 if no lead perceived
	TTC         float64 // true time to collision (s; +Inf when opening)

	LaneLineMin float64 // min distance from body edge to a lane line (m)

	CmdAccel     float64 // executed longitudinal command (m/s^2)
	CmdCurvature float64 // executed curvature command (1/m)
	LongSource   safety.Source
	LatSource    safety.Source

	FaultActive   bool // a fault was injected this step
	FCW           bool
	AEBBraking    bool
	DriverBrake   bool
	DriverSteer   bool
	MLActive      bool
	MonitorActive bool
}

// Trace is the time series of one run.
type Trace struct {
	Samples []Sample
}

// NewTrace returns a Trace with room for capacity samples, so recording
// a run of known length never regrows the backing array.
func NewTrace(capacity int) *Trace {
	if capacity < 0 {
		capacity = 0
	}
	return &Trace{Samples: make([]Sample, 0, capacity)}
}

// Append records a sample.
func (tr *Trace) Append(s Sample) { tr.Samples = append(tr.Samples, s) }

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.Samples) }

// Outcome summarises one run.
type Outcome struct {
	// The class, the two flags and the step count share one word, so a
	// 12-run result slice fits the 2,048-byte allocation class. The wire
	// order is outcomeWire's, not this one.
	Accident Accident
	HazardH1 bool  // safety-distance violation occurred
	HazardH2 bool  // too-close-to-lane-line hazard occurred
	Steps    int32 // simulated steps

	AccidentAt float64 // time of the accident; -1 if none
	H1At       float64 // first H1 time; -1 if none
	H2At       float64 // first H2 time; -1 if none

	FaultFirstAt  float64 // first fault injection; -1 if none
	FCWAt         float64 // first FCW; -1 if never
	AEBBrakeAt    float64 // first AEB braking; -1 if never
	DriverBrakeAt float64 // first driver braking; -1 if never
	DriverSteerAt float64 // first driver steering; -1 if never
	MLRecoveryAt  float64 // first ML recovery-mode activation; -1 if never
	MonitorAt     float64 // first runtime-monitor fallback; -1 if never

	// Benign-performance metrics (Table IV/V).
	FollowingDistance float64 // mean gap during stable following (m); -1 if never followed
	HardestBrake      float64 // max braking command magnitude as a fraction of full braking
	MinTTC            float64 // minimum true TTC (s)
	MinTFCW           float64 // minimum FCW threshold t_fcw over the run (s)
	MinLaneLineDist   float64 // minimum body-edge distance to a lane line (m)

	Duration float64 // simulated time (s)
}

// Prevented reports whether the run avoided an accident.
func (o Outcome) Prevented() bool { return o.Accident == AccidentNone }

// MitigationTime returns interventionAt - FaultFirstAt, the paper's
// per-intervention mitigation delay, and whether it is defined (both
// events occurred, intervention not before the fault).
func (o Outcome) MitigationTime(interventionAt float64) (float64, bool) {
	if o.FaultFirstAt < 0 || interventionAt < 0 {
		return 0, false
	}
	d := interventionAt - o.FaultFirstAt
	if d < 0 {
		d = 0 // intervention already active when the fault began
	}
	return d, true
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Aggregate summarises a set of run outcomes into the Table VI style
// statistics. The json tags define the stable wire format used by the
// campaign service's results endpoint.
type Aggregate struct {
	Runs      int     `json:"runs"`
	A1Rate    float64 `json:"a1_rate"`   // fraction of runs ending in A1
	A2Rate    float64 `json:"a2_rate"`   // fraction of runs ending in A2
	Prevented float64 `json:"prevented"` // fraction with no accident

	AvgAEBTime         float64 `json:"avg_aeb_time"` // mean AEB mitigation time (s)
	AvgDriverBrakeTime float64 `json:"avg_driver_brake_time"`
	AvgDriverSteerTime float64 `json:"avg_driver_steer_time"`

	AEBTriggerRate         float64 `json:"aeb_trigger_rate"`
	DriverBrakeTriggerRate float64 `json:"driver_brake_trigger_rate"`
	DriverSteerTriggerRate float64 `json:"driver_steer_trigger_rate"`
}

// Aggregate computes campaign statistics from outcomes.
func AggregateOutcomes(outs []Outcome) Aggregate {
	agg := Aggregate{Runs: len(outs)}
	if len(outs) == 0 {
		return agg
	}
	var a1, a2, aebTrig, dbTrig, dsTrig int
	var aebTimes, dbTimes, dsTimes []float64
	for _, o := range outs {
		switch o.Accident {
		case AccidentA1:
			a1++
		case AccidentA2:
			a2++
		}
		if o.AEBBrakeAt >= 0 {
			aebTrig++
			if t, ok := o.MitigationTime(o.AEBBrakeAt); ok {
				aebTimes = append(aebTimes, t)
			}
		}
		if o.DriverBrakeAt >= 0 {
			dbTrig++
			if t, ok := o.MitigationTime(o.DriverBrakeAt); ok {
				dbTimes = append(dbTimes, t)
			}
		}
		if o.DriverSteerAt >= 0 {
			dsTrig++
			if t, ok := o.MitigationTime(o.DriverSteerAt); ok {
				dsTimes = append(dsTimes, t)
			}
		}
	}
	n := float64(len(outs))
	agg.A1Rate = float64(a1) / n
	agg.A2Rate = float64(a2) / n
	agg.Prevented = 1 - agg.A1Rate - agg.A2Rate
	agg.AvgAEBTime = Mean(aebTimes)
	agg.AvgDriverBrakeTime = Mean(dbTimes)
	agg.AvgDriverSteerTime = Mean(dsTimes)
	agg.AEBTriggerRate = float64(aebTrig) / n
	agg.DriverBrakeTriggerRate = float64(dbTrig) / n
	agg.DriverSteerTriggerRate = float64(dsTrig) / n
	return agg
}

// NewOutcome returns an Outcome with sentinel values initialised.
func NewOutcome() Outcome {
	return Outcome{
		AccidentAt:        -1,
		H1At:              -1,
		H2At:              -1,
		FaultFirstAt:      -1,
		FCWAt:             -1,
		AEBBrakeAt:        -1,
		DriverBrakeAt:     -1,
		DriverSteerAt:     -1,
		MLRecoveryAt:      -1,
		MonitorAt:         -1,
		FollowingDistance: -1,
		MinTTC:            math.Inf(1),
		MinTFCW:           math.Inf(1),
		MinLaneLineDist:   math.Inf(1),
	}
}
