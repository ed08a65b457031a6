// Package perception models the DNN perception stack of the ADAS as a
// sensor that reads the simulated world and emits the quantities the
// OpenPilot control software consumes: lead-vehicle relative distance and
// speed, lane-line distances, and desired curvature.
//
// The paper does not run adversarial patches through a real DNN either:
// it emulates patch effects by perturbing exactly these outputs (Section
// IV-B). This model therefore exposes the same outputs plus the two
// documented perception failure modes: an 80 m lead-detection range and
// the close-range (< ~2 m) lead-detection dropout behind Observation 2.
package perception

import (
	"fmt"
	"math"
	"math/rand"

	"adasim/internal/world"
)

// Output is one frame of perception predictions ("DNN outputs").
type Output struct {
	// EgoSpeed is the ego vehicle speed from odometry (m/s).
	EgoSpeed float64

	// LeadValid reports whether a lead vehicle is detected.
	LeadValid bool
	// LeadDistance is the predicted bumper-to-bumper relative distance
	// RD to the lead vehicle (m). Meaningful only when LeadValid.
	LeadDistance float64
	// LeadSpeed is the predicted absolute speed of the lead (m/s).
	LeadSpeed float64

	// LaneLineLeft / LaneLineRight are the predicted distances from the
	// ego centre to the current lane's lane lines (m, positive inside).
	LaneLineLeft  float64
	LaneLineRight float64

	// DesiredCurvature is the model's predicted path curvature to follow
	// the lane (1/m, positive left). This is the ALC attack target.
	DesiredCurvature float64

	// OnPatch reports whether the ego is currently driving over an
	// adversarial road patch (ground truth used as the ALC attack
	// trigger, mirroring the paper's source-level injection).
	OnPatch bool

	// CutInDetected reports a vehicle entering the ego lane from an
	// adjacent lane within detection range, used by the driver model.
	CutInDetected bool
}

// RelSpeed returns the closing speed RS = egoSpeed - leadSpeed (m/s,
// positive when closing in).
func (o Output) RelSpeed() float64 { return o.EgoSpeed - o.LeadSpeed }

// Config tunes the perception model.
type Config struct {
	// DetectionRange is the maximum lead detection distance (m). The
	// paper uses 80 m as the effective patch/detection range.
	DetectionRange float64
	// MinDetection is the close-range dropout: leads nearer than this
	// are not detected (Observation 2). Metres.
	MinDetection float64
	// Lookahead is the preview time used for desired curvature (s); the
	// effective preview distance is max(MinLookahead, speed*Lookahead).
	Lookahead float64
	// MinLookahead is the floor on the preview distance (m).
	MinLookahead float64
	// DistanceNoise, SpeedNoise, LaneNoise, CurvatureNoise are standard
	// deviations of zero-mean Gaussian noise added to the respective
	// outputs.
	DistanceNoise  float64
	SpeedNoise     float64
	LaneNoise      float64
	CurvatureNoise float64
	// CutInLateralRate is the minimum lateral speed (m/s) toward the ego
	// lane for a neighbouring vehicle to be flagged as cutting in.
	CutInLateralRate float64
	// LatencySteps delays the camera-derived outputs by this many
	// simulation steps, modelling the camera -> DNN -> planner latency
	// of the real stack (~0.3 s at 100 Hz). Ego speed (odometry) is not
	// delayed.
	LatencySteps int
}

// DefaultConfig returns the perception configuration used in the
// experiments.
func DefaultConfig() Config {
	return Config{
		DetectionRange:   80,
		MinDetection:     2.0,
		Lookahead:        1.3,
		MinLookahead:     14,
		DistanceNoise:    0.15,
		SpeedNoise:       0.10,
		LaneNoise:        0.02,
		CurvatureNoise:   0.0001,
		CutInLateralRate: 0.3,
		LatencySteps:     30,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.DetectionRange <= 0 {
		return fmt.Errorf("perception: DetectionRange %v must be positive", c.DetectionRange)
	}
	if c.MinDetection < 0 || c.MinDetection >= c.DetectionRange {
		return fmt.Errorf("perception: MinDetection %v out of range [0,%v)", c.MinDetection, c.DetectionRange)
	}
	if c.Lookahead < 0 {
		return fmt.Errorf("perception: Lookahead must be non-negative")
	}
	if c.LatencySteps < 0 {
		return fmt.Errorf("perception: LatencySteps must be non-negative")
	}
	return nil
}

// Model is the perception sensor. It is deterministic given its seed.
type Model struct {
	cfg Config
	rng *rand.Rand

	// buf is a preallocated ring implementing the processing latency:
	// count frames starting at head, oldest first. Fixed capacity
	// LatencySteps, so Perceive never allocates.
	buf   []Output
	head  int
	count int

	previewSeg int // road segment hint for the curvature preview
}

// New constructs a perception model with the given config and noise seed.
func New(cfg Config, seed int64) (*Model, error) {
	m := &Model{rng: rand.New(rand.NewSource(seed))}
	if err := m.Reset(cfg, seed); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset reinitialises the model for a new run with a fresh noise seed,
// reusing the latency ring when its size is unchanged. The model behaves
// identically to a freshly constructed New(cfg, seed).
func (m *Model) Reset(cfg Config, seed int64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.cfg = cfg
	if len(m.buf) != cfg.LatencySteps {
		m.buf = make([]Output, cfg.LatencySteps)
	}
	m.head = 0
	m.count = 0
	m.previewSeg = 0
	m.rng.Seed(seed)
	return nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

func (m *Model) noise(sigma float64) float64 {
	if sigma == 0 {
		return 0
	}
	return m.rng.NormFloat64() * sigma
}

// Perceive reads the world and produces one perception frame, delayed by
// the configured processing latency.
func (m *Model) Perceive(w *world.World) Output {
	fresh := m.sense(w)
	if m.cfg.LatencySteps == 0 {
		return fresh
	}
	// Ring push: overwrite the oldest frame once the FIFO holds
	// LatencySteps entries, then emit the (new) oldest.
	if m.count == m.cfg.LatencySteps {
		m.head = (m.head + 1) % len(m.buf)
		m.count--
	}
	m.buf[(m.head+m.count)%len(m.buf)] = fresh
	m.count++
	out := m.buf[m.head]
	// Odometry is not subject to the camera pipeline latency.
	out.EgoSpeed = fresh.EgoSpeed
	return out
}

// sense computes an instantaneous perception frame.
func (m *Model) sense(w *world.World) Output {
	ego := w.Ego().Dyn
	es := ego.State()
	r := w.Road()

	var out Output
	out.EgoSpeed = es.V
	out.OnPatch = r.OnPatch(es.S, es.D)

	// Lead vehicle.
	if lead, gap, ok := w.Lead(); ok && gap >= m.cfg.MinDetection && gap <= m.cfg.DetectionRange {
		out.LeadValid = true
		out.LeadDistance = max(0, gap+m.noise(m.cfg.DistanceNoise))
		out.LeadSpeed = max(0, lead.State().V+m.noise(m.cfg.SpeedNoise))
	}

	// Lane lines.
	left, right := r.LaneLineDistances(es.D)
	out.LaneLineLeft = left + m.noise(m.cfg.LaneNoise)
	out.LaneLineRight = right + m.noise(m.cfg.LaneNoise)

	// Desired curvature: pure-pursuit toward the lane centre at a
	// speed-scaled lookahead, on top of the previewed road curvature.
	laneCentre := r.LaneCenterOffset(r.LaneForOffset(es.D))
	// math.Max, not the builtin: MinLookahead is unchecked, and the two
	// differ for (+Inf, NaN).
	lookDist := math.Max(m.cfg.MinLookahead, es.V*m.cfg.Lookahead)
	if lookDist <= 0 {
		lookDist = 20
	}
	var previewKappa float64
	previewKappa, m.previewSeg = r.CurvatureAt(es.S+lookDist/2, m.previewSeg)
	latErr := (laneCentre - es.D) - lookDist*ego.SinPsi()
	out.DesiredCurvature = previewKappa + 2*latErr/(lookDist*lookDist) +
		m.noise(m.cfg.CurvatureNoise)

	// Cut-in detection: a neighbouring-lane vehicle ahead and within
	// range moving laterally toward the ego lane.
	out.CutInDetected = m.detectCutIn(w)

	return out
}

func (m *Model) detectCutIn(w *world.World) bool {
	es := w.Ego().State()
	lw := w.Road().LaneWidth()
	for _, a := range w.Actors() {
		as := a.State()
		ds := as.S - es.S
		if ds <= 0 || ds > m.cfg.DetectionRange {
			continue
		}
		dd := as.D - es.D
		if math.Abs(dd) < lw*0.6 || math.Abs(dd) > lw*1.5 {
			continue // already in lane, or too far to matter
		}
		// Lateral velocity toward the ego lane.
		latVel := as.V * a.Dyn.SinPsi()
		if (dd > 0 && latVel < -m.cfg.CutInLateralRate) ||
			(dd < 0 && latVel > m.cfg.CutInLateralRate) {
			return true
		}
	}
	return false
}
