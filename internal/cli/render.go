package cli

import (
	"fmt"
	"io"
	"strings"

	"adasim/internal/core"
	"adasim/internal/metrics"
	"adasim/internal/safety"
)

// RenderStrip draws a recorded run as an ASCII bird's-eye strip chart:
// one row per `every` seconds of simulated time, showing the ego's lane
// position, the gap to the lead, and which agent was in control.
func RenderStrip(w io.Writer, res *core.Result, every float64) {
	fmt.Fprintln(w, "   t |  lane position (| = lane lines)  | speed  gap     ctrl  flags")
	fmt.Fprintln(w, "-----+----------------------------------+---------------------------")
	next := 0.0
	for _, s := range res.Trace.Samples {
		if s.T < next {
			continue
		}
		next = s.T + every
		fmt.Fprintf(w, "%4.0fs | %s | %4.1f  %7s  %-6s %s\n",
			s.T, laneStrip(s.EgoD), s.EgoV, gapText(s), ctrlText(s), flagText(s))
	}
	o := res.Outcome
	fmt.Fprintf(w, "-----+----------------------------------+---------------------------\n")
	fmt.Fprintf(w, "outcome: %s", o.Accident)
	if o.AccidentAt >= 0 {
		fmt.Fprintf(w, " at t=%.1fs", o.AccidentAt)
	}
	fmt.Fprintln(w)
}

// laneStrip renders the three lanes with the ego's lateral position.
// The strip spans d in [-5.25, +5.25] m (three 3.5 m lanes).
func laneStrip(d float64) string {
	const width = 32
	cells := []rune(strings.Repeat(" ", width))
	mark := func(dPos float64, r rune) {
		frac := (dPos + 5.25) / 10.5
		i := int(frac * float64(width-1))
		if i < 0 {
			i = 0
		}
		if i >= width {
			i = width - 1
		}
		cells[i] = r
	}
	mark(-5.25, '|')
	mark(-1.75, '|')
	mark(1.75, '|')
	mark(5.25, '|')
	mark(d, 'E')
	return string(cells)
}

func gapText(s metrics.Sample) string {
	if !s.LeadValid {
		return "-"
	}
	return fmt.Sprintf("%5.1fm", s.LeadGap)
}

func ctrlText(s metrics.Sample) string {
	long := s.LongSource.String()
	if s.LatSource != s.LongSource && s.LatSource != safety.SourceADAS {
		return long + "/" + s.LatSource.String()
	}
	return long
}

func flagText(s metrics.Sample) string {
	var flags []string
	if s.FaultActive {
		flags = append(flags, "ATTACK")
	}
	if s.FCW {
		flags = append(flags, "FCW")
	}
	if s.AEBBraking {
		flags = append(flags, "AEB")
	}
	if s.DriverBrake {
		flags = append(flags, "drv-brake")
	}
	if s.DriverSteer {
		flags = append(flags, "drv-steer")
	}
	if s.MLActive {
		flags = append(flags, "ML")
	}
	if s.MonitorActive {
		flags = append(flags, "MON")
	}
	return strings.Join(flags, ",")
}
