package experiments

import (
	"math"
	"strings"
	"testing"

	"adasim/internal/core"
	"adasim/internal/fi"
	"adasim/internal/metrics"
	"adasim/internal/mlmit"
	"adasim/internal/scenario"
)

// quickCfg is a fast campaign configuration for tests.
func quickCfg() Config {
	return Config{Reps: 1, Steps: 3000, BaseSeed: 1}
}

func TestRunMatrixShape(t *testing.T) {
	runs, err := RunMatrix(quickCfg(), fi.Params{}, core.InterventionSet{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := len(scenario.All()) * len(scenario.InitialGaps()) * 1
	if len(runs) != want {
		t.Fatalf("runs = %d, want %d", len(runs), want)
	}
	// Keys cover every scenario/gap pair.
	seen := map[RunKey]bool{}
	for _, r := range runs {
		seen[r.Key] = true
	}
	if len(seen) != want {
		t.Errorf("duplicate keys: %d unique", len(seen))
	}
}

func TestRunMatrixDeterminism(t *testing.T) {
	a, err := RunMatrix(quickCfg(), fi.DefaultParams(fi.TargetRelDistance), core.InterventionSet{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMatrix(quickCfg(), fi.DefaultParams(fi.TargetRelDistance), core.InterventionSet{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Outcome != b[i].Outcome {
			t.Fatalf("run %d differs between identical campaigns", i)
		}
	}
}

func TestFilterByScenario(t *testing.T) {
	runs := []RunOutcome{
		{Key: RunKey{Scenario: scenario.S1}},
		{Key: RunKey{Scenario: scenario.S2}},
		{Key: RunKey{Scenario: scenario.S1}},
	}
	if got := len(FilterByScenario(runs, scenario.S1)); got != 2 {
		t.Errorf("filtered = %d", got)
	}
	if got := len(Outcomes(runs)); got != 3 {
		t.Errorf("outcomes = %d", got)
	}
}

func TestTableIV(t *testing.T) {
	res, err := TableIV(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Runs != 2 {
			t.Errorf("%v: runs = %d", row.Scenario, row.Runs)
		}
		if row.HardestBrake <= 0 {
			t.Errorf("%v: hardest brake %v", row.Scenario, row.HardestBrake)
		}
	}
	text := res.Render()
	if !strings.Contains(text, "TABLE IV") || !strings.Contains(text, "S4") {
		t.Error("render missing content")
	}
}

func TestTableV(t *testing.T) {
	res, err := TableIV(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := TableV(res.Runs)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.IsInf(r.MinDist, 1) || r.MinDist < 0 {
			t.Errorf("%v: min dist = %v", r.Scenario, r.MinDist)
		}
	}
	if !strings.Contains(RenderTableV(rows), "TABLE V") {
		t.Error("render missing title")
	}
}

func TestTableVIRowsAndLookup(t *testing.T) {
	rows := TableVIRows(nil)
	if len(rows) != 7 { // ML row omitted without a network
		t.Fatalf("rows = %d", len(rows))
	}
	cfg := quickCfg()
	res := &TableVIResult{Cells: []TableVICell{
		{Fault: fi.TargetRelDistance, Intervention: "none"},
	}}
	if res.Cell(fi.TargetRelDistance, "none") == nil {
		t.Error("cell lookup failed")
	}
	if res.Cell(fi.TargetCurvature, "none") != nil {
		t.Error("lookup should miss")
	}
	_ = cfg
}

func TestTableVISmall(t *testing.T) {
	cfg := quickCfg()
	rows := []InterventionRow{
		{Label: "none", Set: core.InterventionSet{}},
	}
	res, err := TableVI(cfg, TableVICampaigns(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 { // three fault types x one row
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		total := c.Agg.A1Rate + c.Agg.A2Rate + c.Agg.Prevented
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%v/%s: rates sum to %v", c.Fault, c.Intervention, total)
		}
		// The per-scenario breakdown partitions the cell's runs.
		if len(c.Scenarios) != len(scenario.All()) {
			t.Fatalf("%v: %d scenario aggregates", c.Fault, len(c.Scenarios))
		}
		runs, prevented := 0, 0.0
		for _, s := range c.Scenarios {
			runs += s.Agg.Runs
			prevented += s.Agg.Prevented * float64(s.Agg.Runs)
		}
		if runs != c.Agg.Runs || math.Abs(prevented-c.Agg.Prevented*float64(runs)) > 1e-9 {
			t.Errorf("%v: breakdown sums to %d runs, %v prevented; cell has %d, %v",
				c.Fault, runs, prevented, c.Agg.Runs, c.Agg.Prevented*float64(runs))
		}
	}
	text := res.Render()
	if !strings.Contains(text, "TABLE VI") || !strings.Contains(text, "relative-distance") {
		t.Error("render missing content")
	}
	// The breakdown adds one line per scenario under each cell and
	// leaves every table line as Render prints it.
	var kept []string
	for _, line := range strings.Split(res.RenderBreakdown(), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "S") {
			kept = append(kept, line)
		}
	}
	if got := strings.Join(kept, "\n"); got != text {
		t.Errorf("breakdown changed the table lines:\n%s\nwant:\n%s", got, text)
	}
}

func TestSelectCampaignsKeepsTableSalts(t *testing.T) {
	all := TableVICampaigns(TableVIRows(nil))
	sub, err := SelectCampaigns(all, []string{"aeb-indep", "driver"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 6 {
		t.Fatalf("subset has %d campaigns, want 2 rows x 3 faults", len(sub))
	}
	for _, c := range sub {
		found := false
		for _, a := range all {
			if a.Label == c.Label && a.Fault.Target == c.Fault.Target {
				found = a.Salt == c.Salt
			}
		}
		if !found {
			t.Errorf("%s/%v: salt %d differs from the full table's", c.Label, c.Fault.Target, c.Salt)
		}
	}
	if sub[0].Label != "aeb-indep" || sub[1].Label != "driver" {
		t.Errorf("subset not in table order: %s, %s", sub[0].Label, sub[1].Label)
	}
	_, err = SelectCampaigns(all, []string{"driver", "aeb-indpe"})
	if err == nil || !strings.Contains(err.Error(), "aeb-indpe") || !strings.Contains(err.Error(), "driver+check+aeb-comp") {
		t.Errorf("unknown row: err = %v, want it named with the valid rows", err)
	}
}

func TestReactionTimesAndFrictionScales(t *testing.T) {
	if rts := ReactionTimes(); len(rts) != 6 || rts[0] != 1.0 || rts[5] != 3.5 {
		t.Errorf("reaction times = %v", rts)
	}
	if fs := FrictionScales(); len(fs) != 4 || fs[0] != 1.0 || fs[3] != 0.25 {
		t.Errorf("friction scales = %v", fs)
	}
}

func TestFigure5(t *testing.T) {
	cfg := quickCfg()
	figs, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 {
		t.Fatalf("figures = %d", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 2 {
			t.Errorf("%s: series = %d", f.Name, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.Points) == 0 {
				t.Errorf("%s/%s: empty series", f.Name, s.Label)
			}
		}
		csv := f.CSV()
		if !strings.Contains(csv, "t,value") {
			t.Errorf("%s: CSV header missing", f.Name)
		}
	}
}

func TestFigure6(t *testing.T) {
	fig, err := Figure6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// Under the RD attack the perceived distance must exceed the true
	// distance somewhere.
	trueRD := fig.Series[1].Points
	seenRD := fig.Series[2].Points
	if len(trueRD) == 0 || len(seenRD) == 0 {
		t.Fatal("empty RD series")
	}
	exaggerated := false
	for i := 0; i < len(trueRD) && i < len(seenRD); i++ {
		if seenRD[i][1] > trueRD[i][1]+5 {
			exaggerated = true
			break
		}
	}
	if !exaggerated {
		t.Error("perceived RD never exceeded true RD: attack not visible in figure")
	}
}

func TestBuildSamplesWindows(t *testing.T) {
	pts := make([]core.TrainingPoint, 50)
	for i := range pts {
		pts[i].Frame.EgoSpeed = float64(i)
	}
	samples := BuildSamples([][]core.TrainingPoint{pts}, 10, 0, 0, nil)
	want := (50-mlmit.HistorySteps)/10 + 1
	if len(samples) != want {
		t.Fatalf("samples = %d, want %d", len(samples), want)
	}
	for _, s := range samples {
		if len(s.Seq) != mlmit.HistorySteps {
			t.Errorf("window length = %d", len(s.Seq))
		}
		if len(s.Target) != mlmit.OutputDim {
			t.Errorf("target dim = %d", len(s.Target))
		}
	}
}

func TestTrainBaselineTiny(t *testing.T) {
	tc := TrainingConfig{
		Hidden:       []int{4},
		Epochs:       1,
		BatchSize:    8,
		WindowStride: 50,
		Steps:        600,
		Seed:         3,
	}
	net, loss, err := TrainBaseline(tc)
	if err != nil {
		t.Fatal(err)
	}
	if net == nil {
		t.Fatal("no network")
	}
	if math.IsNaN(loss) || loss < 0 {
		t.Errorf("loss = %v", loss)
	}
	seq := make([][]float64, mlmit.HistorySteps)
	for i := range seq {
		seq[i] = make([]float64, mlmit.FeatureDim)
	}
	out := net.Predict(seq)
	if len(out) != mlmit.OutputDim {
		t.Errorf("prediction dim = %d", len(out))
	}
}

func TestSweepConfigsPropagate(t *testing.T) {
	// Table VIII applies friction through Modify without clobbering an
	// existing Modify hook.
	cfg := quickCfg()
	called := false
	cfg.Modify = func(o *core.Options) { called = true }
	cfg.Reps = 1
	cells, err := TableVIII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("parent Modify hook not invoked")
	}
	if len(cells) != 8 { // 2 faults x 4 frictions
		t.Errorf("cells = %d", len(cells))
	}
	if !strings.Contains(RenderTableVIII(cells), "TABLE VIII") {
		t.Error("render missing title")
	}
	_ = metrics.Aggregate{}
}

func TestExtensionStudySmall(t *testing.T) {
	cfg := quickCfg()
	cells, err := ExtensionStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 { // 6 attacks x 2 mitigations
		t.Fatalf("cells = %d", len(cells))
	}
	if !strings.Contains(RenderExtensionStudy(cells), "EXTENSION STUDY") {
		t.Error("render missing title")
	}
}

func TestWeatherStudySmall(t *testing.T) {
	cfg := quickCfg()
	cells, err := WeatherStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 10 { // 2 faults x 5 conditions
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.CI.Lo > c.CI.Rate || c.CI.Hi < c.CI.Rate {
			t.Errorf("%v/%s: CI [%v,%v] does not bracket %v",
				c.Fault, c.Condition, c.CI.Lo, c.CI.Hi, c.CI.Rate)
		}
	}
	if !strings.Contains(RenderWeatherStudy(cells), "WEATHER STUDY") {
		t.Error("render missing title")
	}
}

func TestTableVIISmall(t *testing.T) {
	if testing.Short() {
		t.Skip("reaction-time sweep is slow")
	}
	cells, err := TableVII(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 18 { // 3 faults x 6 reaction times
		t.Fatalf("cells = %d", len(cells))
	}
	if !strings.Contains(RenderTableVII(cells), "TABLE VII") {
		t.Error("render missing title")
	}
}
