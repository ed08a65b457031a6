// Package core implements the paper's closed-loop simulation platform
// (Fig. 3): it wires the world simulator, the perception model, the
// fault-injection engine, the OpenPilot control software, and the
// three-level safety interventions (AEBS, firmware safety checking,
// driver reactions) plus the ML-based mitigation baseline, then runs a
// full experiment and classifies hazards (H1/H2) and accidents (A1/A2).
package core

import (
	"fmt"

	"adasim/internal/aebs"
	"adasim/internal/driver"
	"adasim/internal/fi"
	"adasim/internal/mlmit"
	"adasim/internal/monitor"
	"adasim/internal/nn"
	"adasim/internal/openpilot"
	"adasim/internal/panda"
	"adasim/internal/perception"
	"adasim/internal/road"
	"adasim/internal/scenario"
	"adasim/internal/vehicle"
)

// Default run dimensions from the paper: 10,000 steps of ~10 ms each,
// 100 s of simulated time per run.
const (
	DefaultSteps    = 10000
	DefaultStepSize = 0.01
)

// DefaultPatchStart is where the adversarial road patch begins (arc
// length, m) unless overridden.
const DefaultPatchStart = 230.0

// DefaultPatchLength is the along-road extent of the road patch (m).
const DefaultPatchLength = 6.0

// InterventionSet selects which safety interventions are active,
// mirroring the configuration columns of Table VI. The json tags define
// the stable wire format used by campaign-service job specs; MLNet is
// deliberately excluded (trained weights do not travel in a job spec —
// the service rejects ML jobs instead).
type InterventionSet struct {
	// Driver enables the human-driver reaction simulator.
	Driver bool `json:"driver,omitempty"`
	// DriverConfig overrides the driver parameters (nil = defaults).
	DriverConfig *driver.Config `json:"driver_config,omitempty"`
	// SafetyCheck enables the firmware (PANDA-style) safety checker.
	SafetyCheck bool `json:"safety_check,omitempty"`
	// AEB selects the AEBS input source; aebs.SourceDisabled (or zero)
	// disables the AEBS.
	AEB aebs.InputSource `json:"aeb,omitempty"`
	// ML enables the ML-based mitigation baseline; MLNet must be a
	// trained network with mlmit dimensions.
	ML    bool        `json:"ml,omitempty"`
	MLNet *nn.Network `json:"-"`
	// MLHub, when non-nil, batches this run's LSTM inference with other
	// in-process runs sharing the network (see mlmit.Hub). Batched and
	// solo predictions are bit-identical, so the hub never changes a
	// run's outputs. Like MLNet it is injected by the executing process
	// and excluded from the wire format.
	MLHub *mlmit.Hub `json:"-"`
	// MLConfig overrides the Algorithm 1 parameters (nil = defaults).
	MLConfig *mlmit.Config `json:"ml_config,omitempty"`
	// Monitor enables the rule-based runtime anomaly monitor (an
	// extension beyond the paper's intervention set).
	Monitor bool `json:"monitor,omitempty"`
	// MonitorConfig overrides the monitor thresholds (nil = defaults).
	MonitorConfig *monitor.Config `json:"monitor_config,omitempty"`
	// DriverPriorityOverAEB inverts the paper's priority hierarchy so
	// the driver overrides the AEB (ablation of Observation 4).
	DriverPriorityOverAEB bool `json:"driver_priority_over_aeb,omitempty"`
}

// Options configures one closed-loop run.
type Options struct {
	// Scenario is the driving scenario instance to run.
	Scenario scenario.Spec
	// Map selects the highway map; zero value defaults to road.MapCurvy
	// (the paper's map has both straight and curvy stretches).
	Map road.MapKind
	// FrictionScale multiplies the default road friction (1.0 = dry;
	// 0.75/0.5/0.25 reproduce Table VIII). Zero means 1.0.
	FrictionScale float64
	// Fault configures the fault-injection engine; a zero value (target
	// fi.TargetNone) runs fault-free.
	Fault fi.Params
	// ExtendedFault enables one of the extension attacks
	// (fi.ExtendedTargets); zero disables. It can be combined with
	// Fault.
	ExtendedFault fi.Target
	// ExtendedParams overrides the extension-attack parameters (nil =
	// defaults).
	ExtendedParams *fi.ExtensionParams
	// Interventions selects the safety interventions.
	Interventions InterventionSet
	// Seed drives all stochastic components of the run.
	Seed int64
	// Steps and StepSize override the run length (defaults 10000 x 10 ms).
	Steps    int
	StepSize float64
	// PatchStart/PatchLength place the adversarial road patch; zero
	// values use the defaults.
	PatchStart  float64
	PatchLength float64
	// OpenPilot, Perception, AEBS, Vehicle, Panda override component
	// configs (nil = package defaults).
	OpenPilot  *openpilot.Config
	Perception *perception.Config
	AEBS       *aebs.Config
	Vehicle    *vehicle.Params
	Panda      *panda.Limits
	// RecordTrace keeps the full per-step time series in the result.
	RecordTrace bool
	// RecordMLFrames collects (fault-free input frame, executed command)
	// pairs each step, used to build training data for the ML baseline.
	RecordMLFrames bool
	// ContinueAfterAccident keeps simulating after an accident instead
	// of terminating the run.
	ContinueAfterAccident bool
}

// WithDefaults returns a copy of o with zero values replaced by
// defaults. It is exported so run fingerprinting (experiments) hashes the
// same resolved options the platform executes, regardless of which zero
// values the caller left implicit.
func (o Options) WithDefaults() Options {
	if o.Map == 0 {
		o.Map = road.MapCurvy
	}
	if o.FrictionScale == 0 {
		o.FrictionScale = 1
	}
	if o.Steps == 0 {
		o.Steps = DefaultSteps
	}
	if o.StepSize == 0 {
		o.StepSize = DefaultStepSize
	}
	if o.PatchStart == 0 {
		o.PatchStart = DefaultPatchStart
	}
	if o.PatchLength == 0 {
		o.PatchLength = DefaultPatchLength
	}
	return o
}

// validate rejects unusable options.
func (o Options) validate() error {
	if err := o.Scenario.Validate(); err != nil {
		return err
	}
	if o.Steps < 0 || !(o.StepSize >= 0) {
		return fmt.Errorf("core: Steps/StepSize must be non-negative")
	}
	if !(o.FrictionScale >= 0) { // NaN fails too
		return fmt.Errorf("core: FrictionScale must be non-negative")
	}
	if o.Interventions.ML && o.Interventions.MLNet == nil {
		return fmt.Errorf("core: ML intervention enabled without a trained network")
	}
	return nil
}
