package metrics

import (
	"encoding/json"
	"fmt"
	"math"
)

// infFloat is a float64 whose JSON encoding survives IEEE infinities,
// which encoding/json rejects: ±Inf encode as the strings "+Inf"/"-Inf"
// (and NaN as "NaN"); finite values encode as plain numbers.
type infFloat float64

// MarshalJSON implements json.Marshaler.
func (f infFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *infFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+Inf"`:
		*f = infFloat(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = infFloat(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = infFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return fmt.Errorf("metrics: invalid float %s: %w", b, err)
	}
	*f = infFloat(v)
	return nil
}

// outcomeWire is the stable wire format of Outcome. Field order and names
// are part of the public API (pinned by a golden-file test); append new
// fields at the end rather than reordering.
type outcomeWire struct {
	Accident   Accident `json:"accident"`
	AccidentAt float64  `json:"accident_at"`

	HazardH1 bool    `json:"hazard_h1"`
	H1At     float64 `json:"h1_at"`
	HazardH2 bool    `json:"hazard_h2"`
	H2At     float64 `json:"h2_at"`

	FaultFirstAt  float64 `json:"fault_first_at"`
	FCWAt         float64 `json:"fcw_at"`
	AEBBrakeAt    float64 `json:"aeb_brake_at"`
	DriverBrakeAt float64 `json:"driver_brake_at"`
	DriverSteerAt float64 `json:"driver_steer_at"`
	MLRecoveryAt  float64 `json:"ml_recovery_at"`
	MonitorAt     float64 `json:"monitor_at"`

	FollowingDistance float64  `json:"following_distance"`
	HardestBrake      float64  `json:"hardest_brake"`
	MinTTC            infFloat `json:"min_ttc"`
	MinTFCW           infFloat `json:"min_tfcw"`
	MinLaneLineDist   infFloat `json:"min_lane_line_dist"`

	Duration float64 `json:"duration"`
	Steps    int32   `json:"steps"`
}

// MarshalJSON encodes the outcome in the stable wire format. The
// possibly-infinite minima (MinTTC, MinTFCW, MinLaneLineDist — +Inf when
// the triggering geometry never occurred) encode as the string "+Inf".
func (o Outcome) MarshalJSON() ([]byte, error) {
	return json.Marshal(outcomeWire{
		Accident:          o.Accident,
		AccidentAt:        o.AccidentAt,
		HazardH1:          o.HazardH1,
		H1At:              o.H1At,
		HazardH2:          o.HazardH2,
		H2At:              o.H2At,
		FaultFirstAt:      o.FaultFirstAt,
		FCWAt:             o.FCWAt,
		AEBBrakeAt:        o.AEBBrakeAt,
		DriverBrakeAt:     o.DriverBrakeAt,
		DriverSteerAt:     o.DriverSteerAt,
		MLRecoveryAt:      o.MLRecoveryAt,
		MonitorAt:         o.MonitorAt,
		FollowingDistance: o.FollowingDistance,
		HardestBrake:      o.HardestBrake,
		MinTTC:            infFloat(o.MinTTC),
		MinTFCW:           infFloat(o.MinTFCW),
		MinLaneLineDist:   infFloat(o.MinLaneLineDist),
		Duration:          o.Duration,
		Steps:             o.Steps,
	})
}

// UnmarshalJSON decodes the stable wire format.
func (o *Outcome) UnmarshalJSON(b []byte) error {
	var w outcomeWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*o = Outcome{
		Accident:          w.Accident,
		AccidentAt:        w.AccidentAt,
		HazardH1:          w.HazardH1,
		H1At:              w.H1At,
		HazardH2:          w.HazardH2,
		H2At:              w.H2At,
		FaultFirstAt:      w.FaultFirstAt,
		FCWAt:             w.FCWAt,
		AEBBrakeAt:        w.AEBBrakeAt,
		DriverBrakeAt:     w.DriverBrakeAt,
		DriverSteerAt:     w.DriverSteerAt,
		MLRecoveryAt:      w.MLRecoveryAt,
		MonitorAt:         w.MonitorAt,
		FollowingDistance: w.FollowingDistance,
		HardestBrake:      w.HardestBrake,
		MinTTC:            float64(w.MinTTC),
		MinTFCW:           float64(w.MinTFCW),
		MinLaneLineDist:   float64(w.MinLaneLineDist),
		Duration:          w.Duration,
		Steps:             w.Steps,
	}
	return nil
}
