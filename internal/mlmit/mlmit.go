// Package mlmit implements the paper's ML-based hazard-mitigation baseline
// (Section IV-D, Algorithm 1): a stacked-LSTM regressor predicts the
// expected gas (acceleration) and steering (curvature) outputs from
// fault-free sensor data; a CUSUM-style accumulator compares the ML
// predictions with the OpenPilot controller outputs and switches the
// actuator to the ML outputs while in recovery mode.
package mlmit

import (
	"fmt"
	"math"

	"adasim/internal/nn"
	"adasim/internal/vehicle"
)

// HistorySteps is the input window length: 20 control cycles = 0.2 s at
// the 100 Hz control frequency, per the paper.
const HistorySteps = 20

// Frame is one step of fault-free model input: the ego state plus the
// control outputs of the previous cycle.
type Frame struct {
	EgoSpeed      float64 // m/s (independent/redundant sensor)
	LeadDistance  float64 // true relative distance (m); detection range when no lead
	LaneLineLeft  float64 // true distance to left lane line (m)
	LaneLineRight float64 // true distance to right lane line (m)
	PrevAccel     float64 // previous cycle's executed acceleration (m/s^2)
	PrevCurvature float64 // previous cycle's executed curvature (1/m)
}

// featureScale normalises each feature to roughly unit range.
var featureScale = [6]float64{30, 80, 2, 2, 4, 0.05}

// outputScale normalises the two regression targets (accel, curvature).
var outputScale = [2]float64{4, 0.05}

// FeatureDim is the model input width.
const FeatureDim = 6

// OutputDim is the model output width (gas, steering).
const OutputDim = 2

// Vector returns the scaled feature vector for the frame.
func (f Frame) Vector() []float64 {
	v := make([]float64, FeatureDim)
	f.VectorInto(v)
	return v
}

// VectorInto writes the scaled feature vector into dst, which must have
// length FeatureDim. The allocation-free form of Vector.
func (f Frame) VectorInto(dst []float64) {
	dst[0] = f.EgoSpeed / featureScale[0]
	dst[1] = f.LeadDistance / featureScale[1]
	dst[2] = f.LaneLineLeft / featureScale[2]
	dst[3] = f.LaneLineRight / featureScale[3]
	dst[4] = f.PrevAccel / featureScale[4]
	dst[5] = f.PrevCurvature / featureScale[5]
}

// VectorInto32 writes the scaled feature vector as float32 — the input
// form of the batched inference path. Scaling happens in float64 and
// rounds once, so the float32 features are a pure function of the frame.
func (f Frame) VectorInto32(dst []float32) {
	dst[0] = float32(f.EgoSpeed / featureScale[0])
	dst[1] = float32(f.LeadDistance / featureScale[1])
	dst[2] = float32(f.LaneLineLeft / featureScale[2])
	dst[3] = float32(f.LaneLineRight / featureScale[3])
	dst[4] = float32(f.PrevAccel / featureScale[4])
	dst[5] = float32(f.PrevCurvature / featureScale[5])
}

// ScaleTarget converts a command into the scaled regression target.
func ScaleTarget(cmd vehicle.Command) []float64 {
	return []float64{cmd.Accel / outputScale[0], cmd.Curvature / outputScale[1]}
}

// UnscaleOutput converts a scaled model output back into a command.
func UnscaleOutput(out []float64) vehicle.Command {
	return vehicle.Command{
		Accel:     out[0] * outputScale[0],
		Curvature: out[1] * outputScale[1],
	}
}

// UnscaleOutput32 converts a scaled float32 model output back into a
// command, widening before the unscale multiply.
func UnscaleOutput32(out []float32) vehicle.Command {
	return vehicle.Command{
		Accel:     float64(out[0]) * outputScale[0],
		Curvature: float64(out[1]) * outputScale[1],
	}
}

// Config holds the Algorithm 1 parameters.
type Config struct {
	// Threshold is tau: recovery mode activates when the accumulated
	// error S exceeds it.
	Threshold float64
	// Bias is b(t) > 0: the per-step bias keeping S at zero under
	// normal conditions, and the exit criterion while in recovery.
	Bias float64
}

// DefaultConfig returns the detector parameters used in the experiments.
func DefaultConfig() Config {
	return Config{Threshold: 2.0, Bias: 0.25}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if !(c.Threshold > 0) || !(c.Bias > 0) {
		return fmt.Errorf("mlmit: Threshold and Bias must be positive: %+v", c)
	}
	return nil
}

// Mitigator is a stateful Algorithm 1 instance. It owns preallocated
// history and inference scratch buffers, so Update performs zero heap
// allocations in steady state. Predictions run on the batched float32
// inference path: solo through its own batch-of-one scratch, or — when
// a Hub is attached — batched with other in-process runs sharing the
// network. The two are bit-identical (see nn.PredictBatchInto), so
// attaching a Hub never changes a run's outputs.
type Mitigator struct {
	cfg Config
	net *nn.Network

	// hist is a ring of the last HistorySteps scaled feature vectors
	// (histRows are reused row views into one flat backing array); seq is
	// the window reassembled oldest-first for each prediction.
	histRows [HistorySteps][]float32
	seq      [HistorySteps][]float32
	head     int // next ring slot to overwrite
	count    int // frames recorded, saturating at HistorySteps

	scratch *nn.InferScratch32

	hub     *Hub
	group   *hubGroup
	entered bool
	out     []float32     // hub prediction result buffer
	done    chan struct{} // hub completion signal, reused every step

	s        float64 // accumulated error S(t)
	recovery bool

	firstRecoveryAt float64
	recoverySteps   int
}

// New constructs a Mitigator around a trained network. The network must
// have input width FeatureDim and output width OutputDim.
func New(cfg Config, net *nn.Network) (*Mitigator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if net == nil {
		return nil, fmt.Errorf("mlmit: network is required")
	}
	m := &Mitigator{
		cfg:             cfg,
		net:             net,
		scratch:         net.NewInferScratch32(1),
		out:             make([]float32, OutputDim),
		done:            make(chan struct{}, 1),
		firstRecoveryAt: -1,
	}
	flat := make([]float32, HistorySteps*FeatureDim)
	for i := range m.histRows {
		m.histRows[i] = flat[i*FeatureDim : (i+1)*FeatureDim]
	}
	return m, nil
}

// AttachHub points the Mitigator at a shared inference batcher (nil
// detaches). Call between runs, not mid-run.
func (m *Mitigator) AttachHub(h *Hub) {
	m.EndRun()
	m.hub = h
}

// EndRun releases the Mitigator's batch-group membership so peers stop
// waiting for it. The platform calls it when a run finalizes; it is
// idempotent and a no-op without a hub.
func (m *Mitigator) EndRun() {
	if m.entered {
		m.entered = false
		g := m.group
		m.group = nil
		g.leave()
	}
}

// Net returns the wrapped network.
func (m *Mitigator) Net() *nn.Network { return m.net }

// Reset clears the detector state and the input history so the Mitigator
// can be reused for a new run, keeping the network, the history ring, and
// the inference scratch buffers. cfg replaces the detector parameters.
// The scratch's cached transposed weights are refreshed from the network,
// so a Reset mitigator stays correct even if the network was retrained in
// place since the last run.
func (m *Mitigator) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.EndRun()
	m.cfg = cfg
	m.scratch.Refresh(m.net)
	m.head = 0
	m.count = 0
	m.s = 0
	m.recovery = false
	m.firstRecoveryAt = -1
	m.recoverySteps = 0
	return nil
}

// Config returns the detector parameters.
func (m *Mitigator) Config() Config { return m.cfg }

// InRecovery reports whether recovery mode is active.
func (m *Mitigator) InRecovery() bool { return m.recovery }

// S returns the current accumulated error.
func (m *Mitigator) S() float64 { return m.s }

// FirstRecoveryAt returns when recovery mode first engaged, or -1.
func (m *Mitigator) FirstRecoveryAt() float64 { return m.firstRecoveryAt }

// RecoverySteps returns how many steps have executed ML outputs.
func (m *Mitigator) RecoverySteps() int { return m.recoverySteps }

// Update processes one control cycle at simulation time t: frame is the
// fault-free sensor input, yOP the OpenPilot controller output. It
// returns the command to execute and whether the ML output was selected.
func (m *Mitigator) Update(t float64, frame Frame, yOP vehicle.Command) (vehicle.Command, bool) {
	frame.VectorInto32(m.histRows[m.head])
	m.head = (m.head + 1) % HistorySteps
	if m.count < HistorySteps {
		m.count++
	}
	if m.count < HistorySteps {
		return yOP, false // not enough history yet
	}
	// Assemble the window oldest-first: once the ring is full, the oldest
	// frame sits at head (the slot about to be overwritten next).
	for i := range m.seq {
		m.seq[i] = m.histRows[(m.head+i)%HistorySteps]
	}

	var out []float32
	if m.hub != nil {
		if !m.entered {
			m.group = m.hub.enter(m.net)
			m.entered = true
		}
		m.group.predict(m.seq[:], m.out, m.done)
		out = m.out
	} else {
		out = m.net.PredictInto32(m.seq[:], m.scratch)
	}
	yML := UnscaleOutput32(out)
	delta := m.delta(yML, yOP)

	// S(t+1) = max(0, S(t) + delta - b), kept non-negative.
	m.s = math.Max(0, m.s+delta-m.cfg.Bias)
	if m.s > m.cfg.Threshold {
		if !m.recovery && m.firstRecoveryAt < 0 {
			m.firstRecoveryAt = t
		}
		m.recovery = true
	}

	if m.recovery {
		if delta <= m.cfg.Bias {
			m.recovery = false
			m.s = 0
			return yOP, false
		}
		m.recoverySteps++
		return yML, true
	}
	return yOP, false
}

// delta is the scaled prediction discrepancy |yML - yOP| combining both
// control dimensions.
func (m *Mitigator) delta(yML, yOP vehicle.Command) float64 {
	da := math.Abs(yML.Accel-yOP.Accel) / outputScale[0]
	dk := math.Abs(yML.Curvature-yOP.Curvature) / outputScale[1]
	return da + dk
}
