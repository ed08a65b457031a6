package core

import (
	"fmt"
	"math"
	"math/rand"

	"adasim/internal/aebs"
	"adasim/internal/driver"
	"adasim/internal/fi"
	"adasim/internal/metrics"
	"adasim/internal/mlmit"
	"adasim/internal/monitor"
	"adasim/internal/openpilot"
	"adasim/internal/panda"
	"adasim/internal/perception"
	"adasim/internal/road"
	"adasim/internal/safety"
	"adasim/internal/scenario"
	"adasim/internal/vehicle"
	"adasim/internal/world"
)

// Result is the product of one closed-loop run.
type Result struct {
	Outcome metrics.Outcome
	// Trace is the full time series; nil unless Options.RecordTrace.
	Trace *metrics.Trace
	// CheckerBlocked counts firmware-check command modifications.
	CheckerBlocked int
	// MLFrames are the recorded training points; nil unless
	// Options.RecordMLFrames.
	MLFrames []TrainingPoint
}

// TrainingPoint is one step of ML-baseline training data: the fault-free
// sensor frame and the command the stack executed.
type TrainingPoint struct {
	Frame    mlmit.Frame
	Executed vehicle.Command
}

// Platform is an assembled closed-loop simulation ready to run. Most
// callers use Run; Platform is exported for step-by-step inspection in
// tests and examples. After a run completes, Reset reinitialises the
// platform for another run without rebuilding the expensive parts.
type Platform struct {
	opts Options
	rng  *rand.Rand

	road        *road.Road
	world       *world.World
	percep      *perception.Model
	injector    *fi.Injector
	extInjector *fi.ExtendedInjector // nil when no extension attack
	opctl       *openpilot.Controller
	aeb         *aebs.System // nil when disabled
	drv         *driver.Model
	checker     *panda.Checker
	arbiter     *safety.Arbiter
	mit         *mlmit.Mitigator
	mon         *monitor.Monitor // nil when disabled

	outcome  metrics.Outcome
	trace    *metrics.Trace
	mlPoints []TrainingPoint
	lastCmd  vehicle.Command
	aebsCfg  aebs.Config
	step     int
	finished bool

	followSum   float64
	followCount int
}

// NewPlatform assembles a platform from options.
func NewPlatform(opts Options) (*Platform, error) {
	p := &Platform{}
	if err := p.init(opts); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset reinitialises the platform for a new run with the given options
// and seed (seed overrides opts.Seed), reusing everything expensive the
// previous run allocated: the road map (when the map configuration is
// unchanged), the perception latency ring, the monitor windows, the ML
// mitigator's network weights and inference scratch, and the world's
// actor storage. A reset platform produces a bit-identical trajectory to
// a freshly constructed one with the same options and seed.
//
// On error the platform may be partially reinitialised and must not be
// stepped; construct a fresh one instead.
func (p *Platform) Reset(opts Options, seed int64) error {
	opts.Seed = seed
	return p.init(opts)
}

// sameRoad reports whether two defaulted option sets build the same road.
func sameRoad(a, b Options) bool {
	return a.Map == b.Map && a.FrictionScale == b.FrictionScale &&
		a.PatchStart == b.PatchStart && a.PatchLength == b.PatchLength
}

// traceCap bounds the preallocated trace capacity: full paper runs are
// 10k steps, but benchmarks pass effectively unbounded step counts.
const traceCap = 1 << 16

// init (re)builds the platform state from opts. It is the shared body of
// NewPlatform and Reset: on a fresh platform every component is
// constructed; on reuse the buffer-heavy components are reset in place.
// The rng draw order must not change — perception and driver seeds derive
// from it and determinism across fresh/reused platforms depends on it.
func (p *Platform) init(opts Options) error {
	opts = opts.WithDefaults()
	if err := opts.validate(); err != nil {
		return err
	}
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(opts.Seed))
	} else {
		p.rng.Seed(opts.Seed)
	}
	rng := p.rng
	rd := p.road
	if rd == nil || !sameRoad(p.opts, opts) {
		patches := []road.PatchZone{{
			StartS: opts.PatchStart,
			EndS:   opts.PatchStart + opts.PatchLength,
			Lane:   1,
		}}
		var err error
		rd, err = road.BuildMap(opts.Map, road.DefaultFriction*opts.FrictionScale, patches)
		if err != nil {
			return err
		}
	}
	params := vehicle.DefaultParams()
	if opts.Vehicle != nil {
		params = *opts.Vehicle
	}
	setup, err := scenario.Build(opts.Scenario, rd, params, rng)
	if err != nil {
		return err
	}
	wcfg := world.Config{
		Road:   rd,
		Ego:    setup.Ego,
		Actors: setup.Actors,
		Step:   opts.StepSize,
	}
	if p.world == nil {
		p.world, err = world.New(wcfg)
	} else {
		err = p.world.Reset(wcfg)
	}
	if err != nil {
		return err
	}
	pcfg := perception.DefaultConfig()
	if opts.Perception != nil {
		pcfg = *opts.Perception
	}
	percepSeed := rng.Int63()
	if p.percep == nil {
		p.percep, err = perception.New(pcfg, percepSeed)
	} else {
		err = p.percep.Reset(pcfg, percepSeed)
	}
	if err != nil {
		return err
	}
	injector, err := fi.New(opts.Fault)
	if err != nil {
		return err
	}
	opcfg := openpilot.DefaultConfig()
	if opts.OpenPilot != nil {
		opcfg = *opts.OpenPilot
	}
	opcfg.SetSpeed = opts.Scenario.EgoSpeed
	opctl, err := openpilot.New(opcfg)
	if err != nil {
		return err
	}
	acfg := aebs.DefaultConfig()
	if opts.AEBS != nil {
		acfg = *opts.AEBS
	}
	var aebSys *aebs.System
	if src := opts.Interventions.AEB; src != 0 && src != aebs.SourceDisabled {
		aebSys, err = aebs.New(acfg, src)
		if err != nil {
			return err
		}
	}
	var drv *driver.Model
	if opts.Interventions.Driver {
		dcfg := driver.DefaultConfig()
		if opts.Interventions.DriverConfig != nil {
			dcfg = *opts.Interventions.DriverConfig
		}
		dcfg.VehicleLength = params.Length
		drv, err = driver.NewSeeded(dcfg, rng.Int63())
		if err != nil {
			return err
		}
	}
	var checker *panda.Checker
	if opts.Interventions.SafetyCheck {
		limits := panda.DefaultLimits()
		if opts.Panda != nil {
			limits = *opts.Panda
		}
		checker, err = panda.New(limits)
		if err != nil {
			return err
		}
	}
	var extInjector *fi.ExtendedInjector
	if opts.ExtendedFault != 0 {
		extParams := fi.DefaultExtensionParams()
		if opts.ExtendedParams != nil {
			extParams = *opts.ExtendedParams
		}
		extInjector, err = fi.NewExtended(opts.ExtendedFault, extParams)
		if err != nil {
			return err
		}
	}
	if opts.Interventions.Monitor {
		mcfg := monitor.DefaultConfig()
		if opts.Interventions.MonitorConfig != nil {
			mcfg = *opts.Interventions.MonitorConfig
		}
		if p.mon == nil {
			p.mon, err = monitor.New(mcfg)
		} else {
			err = p.mon.Reset(mcfg)
		}
		if err != nil {
			return err
		}
	} else {
		p.mon = nil
	}
	if opts.Interventions.ML {
		mcfg := mlmit.DefaultConfig()
		if opts.Interventions.MLConfig != nil {
			mcfg = *opts.Interventions.MLConfig
		}
		if p.mit != nil && p.mit.Net() == opts.Interventions.MLNet {
			err = p.mit.Reset(mcfg)
		} else {
			p.mit, err = mlmit.New(mcfg, opts.Interventions.MLNet)
		}
		if err != nil {
			return err
		}
		p.mit.AttachHub(opts.Interventions.MLHub)
	} else {
		p.mit = nil
	}

	p.opts = opts
	p.road = rd
	p.injector = injector
	p.extInjector = extInjector
	p.opctl = opctl
	p.aeb = aebSys
	p.drv = drv
	p.checker = checker
	p.arbiter = safety.New(safety.Config{
		AEBOverridesDriver: !opts.Interventions.DriverPriorityOverAEB,
		MaxBrake:           params.MaxBrake,
		Checker:            checker,
	})
	p.outcome = metrics.NewOutcome()
	p.aebsCfg = acfg
	// Traces and ML frames escape via Result, so reuse would clobber the
	// previous run's data: hand out fresh storage each run instead.
	p.trace = nil
	if opts.RecordTrace {
		p.trace = metrics.NewTrace(min(opts.Steps, traceCap))
	}
	p.mlPoints = nil
	p.lastCmd = vehicle.Command{}
	p.step = 0
	p.finished = false
	p.followSum = 0
	p.followCount = 0
	return nil
}

// World exposes the underlying world (read-mostly; used by tests).
func (p *Platform) World() *world.World { return p.world }

// Outcome returns the outcome accumulated so far.
func (p *Platform) Outcome() metrics.Outcome { return p.outcome }

// Finished reports whether the run has terminated.
func (p *Platform) Finished() bool { return p.finished }

// Run executes the remaining steps and returns the result.
func (p *Platform) Run() *Result {
	for p.step < p.opts.Steps && !p.finished {
		p.Step()
	}
	p.finalize()
	res := &Result{Outcome: p.outcome, Trace: p.trace, MLFrames: p.mlPoints}
	if p.checker != nil {
		res.CheckerBlocked = p.checker.Blocked()
	}
	return res
}

// Run assembles a platform from options and executes it to completion.
func Run(opts Options) (*Result, error) {
	p, err := NewPlatform(opts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return p.Run(), nil
}

// Step advances the closed loop by one control cycle.
func (p *Platform) Step() {
	if p.finished {
		return
	}
	t := p.world.Time()
	dt := p.world.StepSize()
	egoState := p.world.Ego().State()

	// 1. Perception, then fault injection on its outputs.
	out := p.percep.Perceive(p.world)
	faultActive := p.injector.Apply(t, &out)
	if p.extInjector != nil {
		faultActive = p.extInjector.Apply(t, &out) || faultActive
	}
	if p.outcome.FaultFirstAt < 0 {
		if at := p.injector.FirstActiveAt(); at >= 0 {
			p.outcome.FaultFirstAt = at
		}
	}
	if p.extInjector != nil && p.extInjector.FirstActiveAt() >= 0 {
		if p.outcome.FaultFirstAt < 0 || p.extInjector.FirstActiveAt() < p.outcome.FaultFirstAt {
			p.outcome.FaultFirstAt = p.extInjector.FirstActiveAt()
		}
	}

	// 2. ADAS control software.
	opCmd := p.opctl.Update(out, dt)

	// 2b. Rule-based runtime anomaly monitor (extension mitigation).
	var monDec monitor.Decision
	if p.mon != nil {
		monDec = p.mon.Update(t, out, opCmd, dt)
		if monDec.Active && p.outcome.MonitorAt < 0 {
			p.outcome.MonitorAt = t
		}
	}

	// 3. AEBS on its configured input source.
	var aebDec aebs.Decision
	trueLead, trueGap, trueLeadOK := p.world.Lead()
	if p.aeb != nil {
		aebDec = p.aeb.Update(t, p.aebInputs(egoState, out))
		if aebDec.Braking() && p.outcome.AEBBrakeAt < 0 {
			p.outcome.AEBBrakeAt = t
		}
		if aebDec.FCW && p.outcome.FCWAt < 0 {
			p.outcome.FCWAt = t
		}
	}

	// 4. Human driver observes ground truth.
	var iv driver.Intervention
	if p.drv != nil {
		ob := p.driverObservation(t, egoState, trueGap, trueLeadOK, trueLead, aebDec.FCW)
		iv = p.drv.Update(ob, dt)
		if iv.BrakeActive && p.outcome.DriverBrakeAt < 0 {
			p.outcome.DriverBrakeAt = t
		}
		if iv.SteerActive && p.outcome.DriverSteerAt < 0 {
			p.outcome.DriverSteerAt = t
		}
	}

	// 5. ML mitigation on fault-free (redundant-sensor) inputs.
	mlCmd := opCmd
	mlActive := false
	if p.mit != nil {
		frame := p.mlFrame(egoState, trueGap, trueLeadOK)
		mlCmd, mlActive = p.mit.Update(t, frame, opCmd)
		if mlActive && p.outcome.MLRecoveryAt < 0 {
			p.outcome.MLRecoveryAt = t
		}
	}

	// 6. Arbitration and actuation.
	res := p.arbiter.Arbitrate(safety.Inputs{
		ADAS:          opCmd,
		ML:            mlCmd,
		MLActive:      mlActive,
		Monitor:       monDec.Override,
		MonitorActive: monDec.Active,
		Driver:        iv,
		AEB:           aebDec,
		DT:            dt,
	})
	if p.opts.RecordMLFrames {
		p.mlPoints = append(p.mlPoints, TrainingPoint{
			Frame:    p.mlFrame(egoState, trueGap, trueLeadOK),
			Executed: res.Cmd,
		})
	}
	p.lastCmd = res.Cmd
	p.world.Step(res.Cmd)
	p.step++

	// 7. Monitors and trace.
	p.observe(t, out, res, faultActive, aebDec, iv, mlActive, monDec.Active)
}

// aebInputs builds the AEBS inputs from its configured source.
func (p *Platform) aebInputs(es vehicle.State, out perception.Output) aebs.Inputs {
	if p.aeb.Source() != aebs.SourceIndependent {
		// Compromised: same (possibly attacked) data as the ADAS.
		return aebs.Inputs{
			EgoSpeed:  out.EgoSpeed,
			LeadValid: out.LeadValid,
			RD:        out.LeadDistance,
			RS:        out.RelSpeed(),
		}
	}
	// The independent radar has a wider lateral acceptance than the
	// camera model, so it keeps tracking the lead during a lateral
	// excursion.
	lead, gap, ok := p.world.RadarLead()
	in := aebs.Inputs{EgoSpeed: es.V, LeadValid: ok}
	if ok {
		in.RD = gap
		in.RS = es.V - lead.State().V
	}
	return in
}

// driverObservation builds the driver's ground-truth view.
func (p *Platform) driverObservation(t float64, es vehicle.State, gap float64,
	leadOK bool, lead *world.Actor, fcw bool) driver.Observation {
	left, right := p.road.LaneLineDistances(es.D)
	half := p.world.Ego().Dyn.Params().Width / 2
	laneCentre := p.road.LaneCenterOffset(p.road.LaneForOffset(es.D))
	ob := driver.Observation{
		T:             t,
		EgoSpeed:      es.V,
		EgoAccel:      es.Accel,
		SpeedLimit:    p.opts.Scenario.SpeedLimit,
		LeadValid:     leadOK,
		LaneLineLeft:  left - half,
		LaneLineRight: right - half,
		LaneOffset:    es.D - laneCentre,
		Psi:           es.Psi,
		SinPsi:        p.world.Ego().Dyn.SinPsi(),
		RoadCurvature: p.world.RoadCurvature(p.world.Ego()),
		FCW:           fcw,
		CutIn:         p.cutInVisible(),
	}
	if leadOK {
		ob.LeadGap = gap
		ob.LeadSpeed = lead.State().V
	}
	return ob
}

// cutInVisible reports a neighbouring vehicle moving into the ego lane,
// as the human driver would see it.
func (p *Platform) cutInVisible() bool {
	es := p.world.Ego().State()
	lw := p.road.LaneWidth()
	for _, a := range p.world.Actors() {
		as := a.State()
		ds := as.S - es.S
		if ds <= 0 || ds > 60 {
			continue
		}
		dd := as.D - es.D
		if math.Abs(dd) < lw*0.6 || math.Abs(dd) > lw*1.5 {
			continue
		}
		latVel := as.V * a.Dyn.SinPsi()
		if (dd > 0 && latVel < -0.3) || (dd < 0 && latVel > 0.3) {
			return true
		}
	}
	return false
}

// mlFrame builds the mitigation baseline's fault-free input frame.
func (p *Platform) mlFrame(es vehicle.State, gap float64, leadOK bool) mlmit.Frame {
	left, right := p.road.LaneLineDistances(es.D)
	rd := p.percep.Config().DetectionRange
	if leadOK && gap < rd {
		rd = gap
	}
	return mlmit.Frame{
		EgoSpeed:      es.V,
		LeadDistance:  rd,
		LaneLineLeft:  left,
		LaneLineRight: right,
		PrevAccel:     p.lastCmd.Accel,
		PrevCurvature: p.lastCmd.Curvature,
	}
}
