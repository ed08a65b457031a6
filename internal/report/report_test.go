package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// mapCache is a minimal content-addressed cache for engine tests.
type mapCache struct {
	mu sync.Mutex
	m  map[string]metrics.Outcome
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string]metrics.Outcome)} }

func (c *mapCache) Get(key string) (metrics.Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.m[key]
	return out, ok
}

func (c *mapCache) Put(key string, out metrics.Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = out
}

func TestNormalizedDefaults(t *testing.T) {
	n := Spec{}.Normalized()
	if !reflect.DeepEqual(n.Artifacts, Artifacts()) {
		t.Errorf("Artifacts = %v, want all", n.Artifacts)
	}
	if n.Reps != 10 {
		t.Errorf("Reps = %d, want the paper's 10", n.Reps)
	}
	if n.Steps != core.DefaultSteps {
		t.Errorf("Steps = %d, want %d", n.Steps, core.DefaultSteps)
	}
}

func TestNormalizedCanonicalises(t *testing.T) {
	a := Spec{Artifacts: []string{Fig6, Table6, Table4, Table6}}.Normalized()
	b := Spec{Artifacts: []string{Table4, Table6, Fig6}}.Normalized()
	if !reflect.DeepEqual(a.Artifacts, []string{Table4, Table6, Fig6}) {
		t.Errorf("canonical order = %v", a.Artifacts)
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("permuted/duplicated spec hashes differ: %s vs %s", ha, hb)
	}
	// Explicit paper defaults and the zero value are the same report.
	hc, _ := Spec{Reps: 10, Steps: core.DefaultSteps}.Normalized().Hash()
	hd, _ := Spec{}.Normalized().Hash()
	if hc != hd {
		t.Errorf("explicit and implicit defaults hash differently")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"defaults", Spec{}, true},
		{"subset", Spec{Artifacts: []string{Table6, Fig5}}, true},
		{"unknown artifact", Spec{Artifacts: []string{"table9"}}, false},
		{"reps too large", Spec{Reps: MaxReps + 1}, false},
		{"negative reps", Spec{Reps: -1}, false},
		{"steps too large", Spec{Steps: MaxSteps + 1}, false},
	}
	for _, tc := range cases {
		err := tc.spec.Normalized().Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestDecodeSpecStrict(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"artifacts": ["table4"], "nonsense": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	spec, err := DecodeSpec([]byte(`{"artifacts": ["table4"], "reps": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Reps != 2 || len(spec.Artifacts) != 1 {
		t.Errorf("decoded spec = %+v", spec)
	}
}

// TestSpecGolden pins the report-spec wire format and its content hash.
// If this fails, the wire format changed: bump the API deliberately (and
// regenerate with -update) or fix the regression.
func TestSpecGolden(t *testing.T) {
	spec := Spec{Artifacts: []string{Table6, Table4, Fig6}, Reps: 2, Steps: 500, BaseSeed: 7}.Normalized()
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	got := string(b) + "\n" + hash + "\n"

	path := filepath.Join("testdata", "reportspec.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("report spec wire format drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// goldenSpec is the reduced-reps paper reproduction pinned by the golden
// artifacts: every table and figure at Reps=2, paper-default run length.
func goldenSpec() Spec {
	return Spec{Reps: 2, BaseSeed: 1}
}

// TestGoldenArtifacts pins every paper table and figure byte-for-byte at
// reduced reps. A diff here means some layer (nn, core, experiments,
// report) changed simulated behaviour or rendering: either fix the
// regression or regenerate deliberately with -update.
func TestGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full reduced-reps paper reproduction (~3s)")
	}
	eng := New(experiments.NewPool(0), newMapCache())
	res, err := eng.Run(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	if eng.Tally.Runs() == 0 || res.TotalRuns != eng.Tally.Runs() {
		t.Errorf("TotalRuns = %d, tally runs = %d", res.TotalRuns, eng.Tally.Runs())
	}
	seen := map[string]bool{}
	for _, a := range res.Artifacts {
		if seen[a.File] {
			t.Errorf("duplicate artifact file %s", a.File)
		}
		seen[a.File] = true
		path := filepath.Join("testdata", a.File+".golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(a.Content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: reading golden (run with -update to regenerate): %v", a.File, err)
			continue
		}
		if a.Content != string(want) {
			t.Errorf("%s drifted from its golden artifact (regenerate with -update if intended)", a.File)
		}
	}
	// Every artifact the spec can name must have produced a file.
	if want := len(Artifacts()) + 5; len(res.Artifacts) != want { // fig5 fans out into 6 files
		t.Errorf("artifact count = %d, want %d", len(res.Artifacts), want)
	}
}

// fastSpec is a cheap subset for the determinism tests.
func fastSpec() Spec {
	return Spec{Artifacts: []string{Table4, Table5, Fig6}, Reps: 1, Steps: 600, BaseSeed: 3}
}

// runEncoded runs spec on eng with a fresh tally and returns the
// result's encoding and the tally.
func runEncoded(t *testing.T, eng *Engine, spec Spec) ([]byte, *experiments.Tally) {
	t.Helper()
	eng.Tally = new(experiments.Tally)
	res, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b, eng.Tally
}

// TestDeterminismAcrossShardCounts asserts the report determinism
// contract: the same spec yields byte-identical result encodings on a
// 1-runner pool and an 8-runner pool.
func TestDeterminismAcrossShardCounts(t *testing.T) {
	var encoded [][]byte
	for _, shards := range []int{1, 8} {
		eng := New(experiments.NewPool(shards), newMapCache())
		b, _ := runEncoded(t, eng, fastSpec())
		encoded = append(encoded, b)
	}
	if !bytes.Equal(encoded[0], encoded[1]) {
		t.Error("report results differ between 1-runner and 8-runner pools")
	}
}

// TestDeterminismAcrossCacheWarmth asserts that a report served almost
// entirely from the cache is byte-identical to a cold one, and that the
// warm pass actually hits the cache for every cacheable run.
func TestDeterminismAcrossCacheWarmth(t *testing.T) {
	cache := newMapCache()
	eng := New(experiments.NewPool(0), cache)
	cold, coldTally := runEncoded(t, eng, fastSpec())
	if coldTally.Hits() != 0 {
		t.Errorf("cold report had %d cache hits", coldTally.Hits())
	}
	warm, warmTally := runEncoded(t, eng, fastSpec())
	if !bytes.Equal(cold, warm) {
		t.Error("cold and warm report results are not byte-identical")
	}
	// Figure runs re-execute (their traces never travel through the
	// cache); every table run must be served from it.
	if want := coldTally.Runs() - 1; warmTally.Hits() != want { // fig6 is one run
		t.Errorf("warm report cache hits = %d of %d runs, want %d",
			warmTally.Hits(), warmTally.Runs(), want)
	}
	// An engine without any cache still produces the same bytes.
	uncached, _ := runEncoded(t, New(experiments.NewPool(0), nil), fastSpec())
	if !bytes.Equal(cold, uncached) {
		t.Error("cached and uncached report results are not byte-identical")
	}
}

// TestReportAfterCampaignSharesCache pins the headline reuse property:
// campaign runs covering Table VI's exact grid warm the cache so a
// subsequent table-only report is served >= 90% from it.
func TestReportAfterCampaignSharesCache(t *testing.T) {
	cache := newMapCache()
	spec := Spec{Artifacts: []string{Table6}, Reps: 1, Steps: 600, BaseSeed: 1}

	// Warm exactly the grid a campaign job would execute: one RunMatrix
	// per Table VI campaign, writing through the shared cache.
	warmCfg := experiments.Config{Reps: 1, Steps: 600, BaseSeed: 1, Cache: cache}
	for _, c := range experiments.TableVICampaigns(experiments.TableVIRows(nil)) {
		if _, err := experiments.RunMatrix(warmCfg, c.Fault, c.Interventions, c.Salt); err != nil {
			t.Fatal(err)
		}
	}

	eng := New(experiments.NewPool(0), cache)
	if _, err := eng.Run(spec); err != nil {
		t.Fatal(err)
	}
	runs, hits := eng.Tally.Runs(), eng.Tally.Hits()
	if runs == 0 {
		t.Fatal("report executed no runs")
	}
	if frac := float64(hits) / float64(runs); frac < 0.9 {
		t.Errorf("report after campaign served %.0f%% from cache (%d/%d), want >= 90%%",
			frac*100, hits, runs)
	}
}

// TestProgressMonotonic checks the tally hook contract under a
// parallel pool: the totals OnAdd sees never exceed the tally's, its
// largest equal the final counts, and the report's TotalRuns is the
// run count.
func TestProgressMonotonic(t *testing.T) {
	eng := New(experiments.NewPool(2), newMapCache())
	var mu sync.Mutex
	last, lastHits := 0, 0
	eng.Tally = &experiments.Tally{OnAdd: func(completed, hits int) {
		mu.Lock()
		defer mu.Unlock()
		if hits > completed {
			t.Errorf("OnAdd(%d, %d): more hits than runs", completed, hits)
		}
		last, lastHits = max(last, completed), max(lastHits, hits)
	}}
	res, err := eng.Run(Spec{Artifacts: []string{Table4}, Reps: 1, Steps: 300, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	runs, hits := eng.Tally.Runs(), eng.Tally.Hits()
	if last != runs || lastHits != hits || res.TotalRuns != runs {
		t.Errorf("final progress = (%d, %d), tally = (%d, %d), TotalRuns = %d",
			last, lastHits, runs, hits, res.TotalRuns)
	}
}

// TestEngineTallyAcrossRuns pins TotalRuns as the tally's growth across
// one Run: an engine that keeps its tally over a cold and a warm Run
// serves the same TotalRuns and the same bytes both times, while the
// tally accumulates both.
func TestEngineTallyAcrossRuns(t *testing.T) {
	eng := New(experiments.NewPool(2), newMapCache())
	var encoded [][]byte
	var totals []int
	for range 2 {
		res, err := eng.Run(fastSpec())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, b)
		totals = append(totals, res.TotalRuns)
	}
	if totals[0] == 0 || totals[0] != totals[1] {
		t.Errorf("TotalRuns = %v, want one nonzero count twice", totals)
	}
	if !bytes.Equal(encoded[0], encoded[1]) {
		t.Error("a reused tally changed the report bytes")
	}
	if got := eng.Tally.Runs(); got != 2*totals[0] {
		t.Errorf("tally runs = %d, want %d", got, 2*totals[0])
	}
	if eng.Tally.Hits() == 0 {
		t.Error("warm Run counted no cache hits")
	}
}
