package cli

import (
	"flag"

	"adasim/internal/explore"
)

// Explore is the exploration vocabulary shared by adasimctl explore and
// scen: a family, a method with its axes, or a hazard-boundary search,
// plus the attack and intervention flags.
type Explore struct {
	spec   explore.Spec
	axes   string
	fixed  string
	attack *Attack
	bound  explore.BoundarySpec
}

// BindExplore registers the exploration flags on fs.
func BindExplore(fs *flag.FlagSet) *Explore {
	e := &Explore{}
	s, b := &e.spec, &e.bound
	fs.StringVar(&s.Family, "family", "cut-in", "scenario family (see the scenario catalogue)")
	fs.StringVar(&s.Method, "method", "", "grid|lhs|random (leave empty with -boundary-axis)")
	fs.StringVar(&e.axes, "axes", "", "swept axes, name=min:max[:points],...")
	fs.StringVar(&e.fixed, "fixed", "", "pinned parameters, name=value,...")
	fs.IntVar(&s.Samples, "samples", 0, "lhs/random sample count (0 = default)")
	fs.Int64Var(&s.Seed, "sampler-seed", 0, "sampler seed (lhs/random)")
	fs.Int64Var(&s.BaseSeed, "seed", 0, "base seed for per-probe run seeds")
	fs.IntVar(&s.Steps, "steps", 0, "steps per probe (0 = paper default)")
	e.attack = BindAttack(fs)
	fs.StringVar(&b.Axis, "boundary-axis", "", "hazard-boundary search axis (switches to the boundary method)")
	fs.Float64Var(&b.Min, "boundary-min", 0, "boundary axis lower bound (0 with -boundary-max 0 = family box)")
	fs.Float64Var(&b.Max, "boundary-max", 0, "boundary axis upper bound")
	fs.Float64Var(&b.Tolerance, "tol", 0, "boundary tolerance in axis units (0 = default)")
	fs.IntVar(&b.MaxProbes, "max-probes", 0, "boundary probe cap (0 = default)")
	return e
}

// Spec assembles the exploration spec from the parsed flags.
func (e *Explore) Spec() (explore.Spec, error) {
	spec := e.spec
	spec.Fault, spec.Interventions = e.attack.Fault, e.attack.Interventions
	var err error
	if spec.Axes, err = explore.ParseAxes(e.axes); err != nil {
		return spec, err
	}
	if spec.Fixed, err = explore.ParseFixed(e.fixed); err != nil {
		return spec, err
	}
	if e.bound.Axis != "" {
		b := e.bound
		spec.Boundary = &b
	}
	return spec, nil
}
