package cli

import (
	"bytes"
	"strings"
	"testing"

	"adasim/internal/core"
	"adasim/internal/metrics"
	"adasim/internal/safety"
)

func TestRenderStrip(t *testing.T) {
	res := &core.Result{
		Outcome: metrics.Outcome{Accident: metrics.AccidentA1, AccidentAt: 1.5},
		Trace: &metrics.Trace{Samples: []metrics.Sample{
			{T: 0, EgoD: 0, EgoV: 20, LeadValid: true, LeadGap: 60, FaultActive: true},
			{T: 0.5, EgoD: 9, EgoV: 20}, // skipped: inside the first row's second
			{T: 1, EgoD: 9, EgoV: 10, LongSource: safety.SourceAEB, LatSource: safety.SourceDriver,
				FCW: true, AEBBraking: true, DriverBrake: true, DriverSteer: true, MLActive: true, MonitorActive: true},
		}},
	}
	var b bytes.Buffer
	RenderStrip(&b, res, 1)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines, want header, rule, 2 rows, rule, outcome:\n%s", len(lines), b.String())
	}
	if row := lines[2]; !strings.Contains(row, "   0s |") || !strings.Contains(row, "E") ||
		!strings.Contains(row, " 60.0m") || !strings.HasSuffix(row, "ATTACK") {
		t.Errorf("first row %q", row)
	}
	// An off-strip lateral position clamps to the last cell; the lead is
	// lost, and the two control sources differ.
	row := lines[3]
	if !strings.Contains(row, "  E | 10.0") || !strings.Contains(row, "  -  ") ||
		!strings.Contains(row, safety.SourceAEB.String()+"/"+safety.SourceDriver.String()) ||
		!strings.HasSuffix(row, "FCW,AEB,drv-brake,drv-steer,ML,MON") {
		t.Errorf("second row %q", row)
	}
	if want := "outcome: " + metrics.AccidentA1.String() + " at t=1.5s"; lines[5] != want {
		t.Errorf("outcome line %q, want %q", lines[5], want)
	}
}
