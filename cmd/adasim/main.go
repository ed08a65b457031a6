// Command adasim runs a single closed-loop simulation: one driving
// scenario, an optional perception attack, and a chosen set of safety
// interventions. It prints the run outcome, can dump the full trace as
// CSV, and can render the run as an ASCII bird's-eye strip chart.
//
// Examples:
//
//	adasim -scenario S1 -gap 60
//	adasim -scenario S4 -fault rd -aeb independent -driver
//	adasim -scenario S1 -fault curvature -driver -reaction 1.0 -trace run.csv
//	adasim -scenario S1 -fault curv -driver -render 1
package main

import (
	"fmt"
	"io"
	"os"

	"adasim/internal/cli"
	"adasim/internal/core"
	"adasim/internal/driver"
	"adasim/internal/scenario"
)

func main() { cli.Main("adasim", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("adasim", stderr)
	scen := cli.BindScenario(fs)
	attack := cli.BindAttack(fs)
	var (
		reaction = fs.Float64("reaction", driver.DefaultReactionTime, "driver reaction time (s)")
		friction = fs.Float64("friction", 1.0, "road friction scale (1.0 = dry)")
		seed     = fs.Int64("seed", 1, "random seed")
		steps    = fs.Int("steps", core.DefaultSteps, "simulation steps (10 ms each)")
		traceOut = fs.String("trace", "", "write the full per-step trace CSV to this file")
		render   = fs.Float64("render", 0, "render a strip chart, one row per this many seconds (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *render < 0 {
		return fmt.Errorf("-render must be >= 0, got %v", *render)
	}
	iv := attack.Interventions
	if iv.Driver {
		dcfg := driver.DefaultConfig()
		dcfg.ReactionTime = *reaction
		iv.DriverConfig = &dcfg
	}
	res, err := core.Run(core.Options{
		Scenario:      scenario.DefaultSpec(scen.ID, scen.Gap),
		Fault:         attack.Fault,
		Interventions: iv,
		FrictionScale: *friction,
		Seed:          *seed,
		Steps:         *steps,
		RecordTrace:   *traceOut != "" || *render > 0,
	})
	if err != nil {
		return err
	}
	printOutcome(stdout, res)
	if *traceOut != "" {
		if err := writeTrace(*traceOut, res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace written to %s (%d samples)\n", *traceOut, res.Trace.Len())
	}
	if *render > 0 {
		cli.RenderStrip(stdout, res, *render)
	}
	return nil
}

func printOutcome(w io.Writer, res *core.Result) {
	o := res.Outcome
	fmt.Fprintf(w, "accident:            %s", o.Accident)
	if o.AccidentAt >= 0 {
		fmt.Fprintf(w, " at t=%.2fs", o.AccidentAt)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "hazards:             H1=%v H2=%v\n", o.HazardH1, o.HazardH2)
	fmt.Fprintf(w, "fault first active:  %s\n", timeOrNever(o.FaultFirstAt))
	fmt.Fprintf(w, "FCW first fired:     %s\n", timeOrNever(o.FCWAt))
	fmt.Fprintf(w, "AEB first braked:    %s\n", timeOrNever(o.AEBBrakeAt))
	fmt.Fprintf(w, "driver first braked: %s\n", timeOrNever(o.DriverBrakeAt))
	fmt.Fprintf(w, "driver first steered:%s\n", timeOrNever(o.DriverSteerAt))
	if o.FollowingDistance >= 0 {
		fmt.Fprintf(w, "following distance:  %.2f m\n", o.FollowingDistance)
	}
	fmt.Fprintf(w, "hardest brake:       %.1f%%\n", o.HardestBrake*100)
	fmt.Fprintf(w, "min TTC:             %.2f s\n", o.MinTTC)
	fmt.Fprintf(w, "min lane-line dist:  %.2f m\n", o.MinLaneLineDist)
	fmt.Fprintf(w, "simulated:           %.1f s (%d steps)\n", o.Duration, o.Steps)
	if res.CheckerBlocked > 0 {
		fmt.Fprintf(w, "safety check blocked %d commands\n", res.CheckerBlocked)
	}
}

func timeOrNever(t float64) string {
	if t < 0 {
		return "never"
	}
	return fmt.Sprintf("t=%.2fs", t)
}

func writeTrace(path string, res *core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f,
		"t,ego_s,ego_d,ego_v,ego_accel,lead_gap,perceived_rd,ttc,lane_line_min,cmd_accel,cmd_curvature,fault,fcw,aeb,driver_brake,driver_steer,ml"); err != nil {
		return err
	}
	for _, s := range res.Trace.Samples {
		if _, err := fmt.Fprintf(f, "%.2f,%.2f,%.3f,%.2f,%.2f,%.2f,%.2f,%.2f,%.3f,%.2f,%.5f,%v,%v,%v,%v,%v,%v\n",
			s.T, s.EgoS, s.EgoD, s.EgoV, s.EgoAccel, s.LeadGap, s.PerceivedRD, s.TTC,
			s.LaneLineMin, s.CmdAccel, s.CmdCurvature, s.FaultActive, s.FCW,
			s.AEBBraking, s.DriverBrake, s.DriverSteer, s.MLActive); err != nil {
			return err
		}
	}
	return f.Close()
}
