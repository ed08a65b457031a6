package experiments

import (
	"fmt"
	"strings"

	"adasim/internal/aebs"
	"adasim/internal/core"
	"adasim/internal/fi"
	"adasim/internal/metrics"
	"adasim/internal/nn"
	"adasim/internal/scenario"
)

// InterventionRow is one safety-intervention configuration of Table VI.
type InterventionRow struct {
	Label string
	Set   core.InterventionSet
}

// TableVIRows returns the paper's eight intervention configurations, in
// table order. mlNet may be nil if the ML rows are skipped.
func TableVIRows(mlNet *nn.Network) []InterventionRow {
	rows := []InterventionRow{
		{Label: "none", Set: core.InterventionSet{}},
		{Label: "driver+check", Set: core.InterventionSet{Driver: true, SafetyCheck: true}},
		{Label: "driver+check+aeb-comp", Set: core.InterventionSet{
			Driver: true, SafetyCheck: true, AEB: aebs.SourceCompromised}},
		{Label: "driver+check+aeb-indep", Set: core.InterventionSet{
			Driver: true, SafetyCheck: true, AEB: aebs.SourceIndependent}},
		{Label: "aeb-comp", Set: core.InterventionSet{AEB: aebs.SourceCompromised}},
		{Label: "aeb-indep", Set: core.InterventionSet{AEB: aebs.SourceIndependent}},
		{Label: "driver", Set: core.InterventionSet{Driver: true}},
	}
	if mlNet != nil {
		rows = append(rows, MLRow(mlNet))
	}
	return rows
}

// MLRow is Table VI's ML-baseline row running mlNet.
func MLRow(mlNet *nn.Network) InterventionRow {
	return InterventionRow{Label: "ml-model", Set: core.InterventionSet{ML: true, MLNet: mlNet}}
}

// TableVICell is one (fault type, intervention) cell of Table VI.
type TableVICell struct {
	Fault        fi.Target
	Intervention string
	Agg          metrics.Aggregate
	// Scenarios breaks Agg down per scenario, from the same runs.
	Scenarios []ScenarioAggregate
}

// ScenarioAggregate is one scenario's share of a cell.
type ScenarioAggregate struct {
	Scenario scenario.ID
	Agg      metrics.Aggregate
}

// TableVIResult is the full fault-injection evaluation.
type TableVIResult struct {
	Cells []TableVICell
}

// Campaign is one (fault, interventions, salt) matrix of a table. The
// salt is part of a table's identity: warming the cache for a table
// means running campaign jobs with exactly these salts.
type Campaign struct {
	Label         string
	Fault         fi.Params
	Interventions core.InterventionSet
	Salt          int64
}

// TableVICampaigns enumerates Table VI's campaigns in table order, so
// external warmers (campaign-service jobs, benchmarks) can cover the
// exact run grid the table executes.
func TableVICampaigns(rows []InterventionRow) []Campaign {
	var cs []Campaign
	for fi_, target := range fi.Targets() {
		for ri, row := range rows {
			cs = append(cs, Campaign{
				Label:         row.Label,
				Fault:         fi.DefaultParams(target),
				Interventions: row.Set,
				Salt:          int64(100 + 10*fi_ + ri),
			})
		}
	}
	return cs
}

// SelectCampaigns keeps the campaigns whose row label is named, in table
// order. Filtering after TableVICampaigns keeps each row's table-wide
// salt, so a subset's cells equal those of the full table. An unknown
// label is an error listing the valid ones.
func SelectCampaigns(cs []Campaign, labels []string) ([]Campaign, error) {
	var valid []string
	known := map[string]bool{}
	for _, c := range cs {
		if !known[c.Label] {
			known[c.Label] = true
			valid = append(valid, c.Label)
		}
	}
	wanted := map[string]bool{}
	for _, l := range labels {
		if !known[l] {
			return nil, fmt.Errorf("unknown row %q; valid rows: %s", l, strings.Join(valid, ", "))
		}
		wanted[l] = true
	}
	var out []Campaign
	for _, c := range cs {
		if wanted[c.Label] {
			out = append(out, c)
		}
	}
	return out, nil
}

// TableVI runs the paper's central fault-injection campaign, one cell
// per campaign: TableVICampaigns for the whole table, or a
// SelectCampaigns subset of it.
func TableVI(cfg Config, campaigns []Campaign) (*TableVIResult, error) {
	res := &TableVIResult{}
	for _, c := range campaigns {
		runs, err := RunMatrix(cfg, c.Fault, c.Interventions, c.Salt)
		if err != nil {
			return nil, fmt.Errorf("table vi (%v, %s): %w", c.Fault.Target, c.Label, err)
		}
		cell := TableVICell{
			Fault:        c.Fault.Target,
			Intervention: c.Label,
			Agg:          metrics.AggregateOutcomes(Outcomes(runs)),
		}
		for _, id := range scenario.All() {
			if outs := FilterByScenario(runs, id); len(outs) > 0 {
				cell.Scenarios = append(cell.Scenarios, ScenarioAggregate{id, metrics.AggregateOutcomes(outs)})
			}
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// Cell returns the cell for a fault/intervention pair, or nil.
func (r *TableVIResult) Cell(target fi.Target, intervention string) *TableVICell {
	for i := range r.Cells {
		if r.Cells[i].Fault == target && r.Cells[i].Intervention == intervention {
			return &r.Cells[i]
		}
	}
	return nil
}

// Render formats the campaign in the paper's Table VI layout.
func (r *TableVIResult) Render() string { return r.render(false) }

// RenderBreakdown is Render with each cell followed by its per-scenario
// rows in the same columns.
func (r *TableVIResult) RenderBreakdown() string { return r.render(true) }

func (r *TableVIResult) render(breakdown bool) string {
	var b strings.Builder
	b.WriteString("TABLE VI: Fault Injection with or w/o Safety Interventions\n")
	fmt.Fprintf(&b, "%-18s %-23s %7s %7s %9s | %7s %7s %7s | %7s %7s %7s\n",
		"Fault", "Interventions", "A1", "A2", "Prevented",
		"tAEB(s)", "tDrB(s)", "tDrS(s)", "AEB%", "DrB%", "DrS%")
	row := func(name, label string, a metrics.Aggregate) {
		fmt.Fprintf(&b, "%-18s %-23s %6.2f%% %6.2f%% %8.2f%% | %7.2f %7.2f %7.2f | %6.1f%% %6.1f%% %6.1f%%\n",
			name, label, a.A1Rate*100, a.A2Rate*100, a.Prevented*100,
			a.AvgAEBTime, a.AvgDriverBrakeTime, a.AvgDriverSteerTime,
			a.AEBTriggerRate*100, a.DriverBrakeTriggerRate*100, a.DriverSteerTriggerRate*100)
	}
	last := fi.TargetNone
	for _, c := range r.Cells {
		name := ""
		if c.Fault != last {
			name = c.Fault.String()
			last = c.Fault
		}
		row(name, c.Intervention, c.Agg)
		if breakdown {
			for _, s := range c.Scenarios {
				row("", "  "+s.Scenario.String(), s.Agg)
			}
		}
	}
	return b.String()
}
