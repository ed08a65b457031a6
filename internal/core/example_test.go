package core_test

import (
	"fmt"
	"log"

	"adasim/internal/core"
	"adasim/internal/fi"
	"adasim/internal/metrics"
	"adasim/internal/scenario"
)

// ExampleRun runs one benign closed loop: scenario S1, the lead
// cruising at 30 mph from 60 m ahead. OpenPilot settles into a ~2 s
// following gap without a hard brake.
func ExampleRun() {
	res, err := core.Run(core.Options{
		Scenario: scenario.DefaultSpec(scenario.S1, 60),
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	o := res.Outcome
	fmt.Println("accident:", o.Accident)
	fmt.Printf("following distance: %.1f m\n", o.FollowingDistance)
	fmt.Printf("hardest brake: %.0f%%\n", o.HardestBrake*100)
	fmt.Printf("min TTC: %.2f s\n", o.MinTTC)
	fmt.Printf("min lane-line distance: %.2f m\n", o.MinLaneLineDist)
	// Output:
	// accident: none
	// following distance: 28.2 m
	// hardest brake: 39%
	// min TTC: 5.74 s
	// min lane-line distance: 0.77 m
}

// ExampleOptions_extendedFault runs the stealthy-distance extension
// attack, a slow ramp in the perceived distance with no jump, on S1
// with and without the rule-based runtime monitor. The monitor still
// catches it and falls back to conservative control before the crash.
func ExampleOptions_extendedFault() {
	for _, monitor := range []bool{false, true} {
		res, err := core.Run(core.Options{
			Scenario:      scenario.DefaultSpec(scenario.S1, 60),
			ExtendedFault: fi.TargetStealthyDistance,
			Interventions: core.InterventionSet{Monitor: monitor},
			Seed:          1,
		})
		if err != nil {
			log.Fatal(err)
		}
		o := res.Outcome
		fmt.Printf("monitor=%v: ", monitor)
		if o.Accident == metrics.AccidentNone {
			fmt.Print("prevented")
		} else {
			fmt.Printf("%s at t=%.1fs", o.Accident, o.AccidentAt)
		}
		if o.MonitorAt >= 0 {
			fmt.Printf(", fallback at t=%.1fs", o.MonitorAt)
		}
		fmt.Println()
	}
	// Output:
	// monitor=false: A1 at t=45.6s
	// monitor=true: prevented, fallback at t=6.6s
}
