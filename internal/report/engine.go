package report

import (
	"fmt"

	"adasim/internal/experiments"
	"adasim/internal/nn"
)

// Artifact is one rendered table or figure file. Content is the
// canonical byte-stable encoding (fixed-format text for tables, CSV for
// figures); File is the conventional file name cmd/tables writes.
type Artifact struct {
	Name    string `json:"name"`
	File    string `json:"file"`
	Content string `json:"content"`
}

// Result is a report's outcome. It deliberately carries no report ID,
// timing, or cache counters, so the encoding is a pure function of the
// normalized spec: byte-identical across executor shard counts and
// cache warmth.
type Result struct {
	SpecHash  string     `json:"spec_hash"`
	TotalRuns int        `json:"total_runs"`
	Artifacts []Artifact `json:"artifacts"`
}

// Artifact returns the first artifact with the given name, or nil.
func (r *Result) Artifact(name string) *Artifact {
	for i := range r.Artifacts {
		if r.Artifacts[i].Name == name {
			return &r.Artifacts[i]
		}
	}
	return nil
}

// Engine computes reports against an executor and an optional cache.
type Engine struct {
	exec  experiments.Executor
	cache experiments.Cache
	// MLNet, when non-nil, adds the ML baseline row to Table VI. It is an
	// offline-only extra: trained weights are not part of a Spec (so the
	// service never sets it), ML runs bypass the result cache (they
	// cannot be fingerprinted), and the purity of Result with respect to
	// the spec hash only holds for engines without a network attached.
	MLNet *nn.Network
	// Tally counts every run the engine resolves, across calls (see
	// experiments.Resolve). New gives each engine its own; replace it
	// to observe or share the counts. Concurrent Runs must not share
	// one: each Run's TotalRuns is the tally's growth across it.
	Tally *experiments.Tally
}

// New builds an engine. cache may be nil.
func New(exec experiments.Executor, cache experiments.Cache) *Engine {
	return &Engine{exec: exec, cache: cache, Tally: new(experiments.Tally)}
}

// setup normalizes and validates spec and returns the campaign config
// that runs through the engine's executor, cache and tally.
func (e *Engine) setup(spec Spec) (Spec, experiments.Config, error) {
	n := spec.Normalized()
	if err := n.Validate(); err != nil {
		return n, experiments.Config{}, err
	}
	return n, experiments.Config{
		Reps:     n.Reps,
		Steps:    n.Steps,
		BaseSeed: n.BaseSeed,
		Executor: e.exec,
		Cache:    e.cache,
		Tally:    e.Tally,
	}, nil
}

// TableVI runs Table VI's cells for the given campaigns at the spec's
// reps, steps and seed. Pass experiments.SelectCampaigns over
// experiments.TableVICampaigns for a row subset: each row keeps its
// table-wide salt, so its cells equal those of the full table6 artifact.
func (e *Engine) TableVI(spec Spec, campaigns []experiments.Campaign) (*experiments.TableVIResult, error) {
	_, cfg, err := e.setup(spec)
	if err != nil {
		return nil, err
	}
	return experiments.TableVI(cfg, campaigns)
}

// Run computes the report and returns its result. The spec is normalized
// and validated first, so callers may pass the raw wire form.
func (e *Engine) Run(spec Spec) (*Result, error) {
	n, cfg, err := e.setup(spec)
	if err != nil {
		return nil, err
	}
	hash, err := n.Hash()
	if err != nil {
		return nil, err
	}
	before := e.Tally.Runs()

	// Table V derives from Table IV's fault-free runs, so the campaign
	// executes once even when both artifacts are requested.
	var t4 *experiments.TableIVResult
	tableIV := func() (*experiments.TableIVResult, error) {
		if t4 == nil {
			if t4, err = experiments.TableIV(cfg); err != nil {
				return nil, err
			}
		}
		return t4, nil
	}

	res := &Result{SpecHash: hash}
	add := func(name, file, content string) {
		res.Artifacts = append(res.Artifacts, Artifact{Name: name, File: file, Content: content})
	}
	for _, name := range n.Artifacts {
		switch name {
		case Table4:
			t, err := tableIV()
			if err != nil {
				return nil, err
			}
			add(name, "table4.txt", t.Render())
		case Table5:
			t, err := tableIV()
			if err != nil {
				return nil, err
			}
			add(name, "table5.txt", experiments.RenderTableV(experiments.TableV(t.Runs)))
		case Table6:
			t, err := experiments.TableVI(cfg, experiments.TableVICampaigns(experiments.TableVIRows(e.MLNet)))
			if err != nil {
				return nil, err
			}
			add(name, "table6.txt", t.Render())
		case Table7:
			cells, err := experiments.TableVII(cfg)
			if err != nil {
				return nil, err
			}
			add(name, "table7.txt", experiments.RenderTableVII(cells))
		case Table8:
			cells, err := experiments.TableVIII(cfg)
			if err != nil {
				return nil, err
			}
			add(name, "table8.txt", experiments.RenderTableVIII(cells))
		case Fig5:
			figs, err := experiments.Figure5(cfg)
			if err != nil {
				return nil, err
			}
			for _, f := range figs {
				add(name, f.Name+".csv", f.CSV())
			}
		case Fig6:
			fig, err := experiments.Figure6(cfg)
			if err != nil {
				return nil, err
			}
			add(name, fig.Name+".csv", fig.CSV())
		case Ext:
			cells, err := experiments.ExtensionStudy(cfg)
			if err != nil {
				return nil, err
			}
			add(name, "extension_study.txt", experiments.RenderExtensionStudy(cells))
		case Weather:
			cells, err := experiments.WeatherStudy(cfg)
			if err != nil {
				return nil, err
			}
			add(name, "weather_study.txt", experiments.RenderWeatherStudy(cells))
		default:
			return nil, fmt.Errorf("report: unknown artifact %q", name)
		}
	}
	// Executed plus cached equals the planned run count, a pure function
	// of the spec — so TotalRuns stays byte-stable across cache warmth.
	res.TotalRuns = e.Tally.Runs() - before
	return res, nil
}
