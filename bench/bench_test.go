package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // 0: no percentile qualifies
	}{
		{19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != (tc.want != 0) || p != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", tc.n, p, ok, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s := sortedCopy(xs)
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 10 {
		t.Error("sortedCopy reordered its input")
	}
}

// TestQuartilesMatchPython pins the spread rule to Python's
// statistics.quantiles(xs, n=4) ("exclusive" method).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

const expoBefore = `# HELP adasim_http_request_seconds HTTP request handling time by route and method.
# TYPE adasim_http_request_seconds histogram
adasim_http_request_seconds_bucket{route="/v1/tasks/jobs",method="POST",le="0.001"} 3
adasim_http_request_seconds_bucket{route="/v1/tasks/jobs",method="POST",le="+Inf"} 4
adasim_http_request_seconds_sum{route="/v1/tasks/jobs",method="POST"} 0.004
adasim_http_request_seconds_count{route="/v1/tasks/jobs",method="POST"} 4
# TYPE adasim_runs_total counter
adasim_runs_total{outcome="ok"} 10
adasim_runs_total{outcome="failed"} 0
# TYPE adasim_cache_entries gauge
adasim_cache_entries 7
`

const expoAfter = `# HELP adasim_http_request_seconds HTTP request handling time by route and method.
# TYPE adasim_http_request_seconds histogram
adasim_http_request_seconds_bucket{route="/v1/tasks/jobs",method="POST",le="0.001"} 9
adasim_http_request_seconds_bucket{route="/v1/tasks/jobs",method="POST",le="+Inf"} 14
adasim_http_request_seconds_sum{route="/v1/tasks/jobs",method="POST"} 0.024
adasim_http_request_seconds_count{route="/v1/tasks/jobs",method="POST"} 14
adasim_http_request_seconds_sum{route="/v1/tasks/{id}",method="GET"} 1.5
adasim_http_request_seconds_count{route="/v1/tasks/{id}",method="GET"} 3
# TYPE adasim_runs_total counter
adasim_runs_total{outcome="ok"} 25
adasim_runs_total{outcome="failed"} 2
# TYPE adasim_cache_entries gauge
adasim_cache_entries 5
# TYPE adasim_weird counter
adasim_weird{detail="a \"quoted\", comma\\n"} 1
`

func TestExpositionDelta(t *testing.T) {
	before, err := parseExposition(expoBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(expoAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	jobs := map[string]string{"route": "/v1/tasks/jobs", "method": "POST"}
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{
		{"ok runs", d.sum("adasim_runs_total", map[string]string{"outcome": "ok"}), 15},
		{"all runs", d.sum("adasim_runs_total", nil), 17},
		{"submit mean ms", d.histMean("adasim_http_request_seconds", jobs, 1e3), 2},
		{"new series counts from zero", d.histMean("adasim_http_request_seconds", map[string]string{"method": "GET"}, 1), 0.5},
		{"gauge level", after.sum("adasim_cache_entries", nil), 5},
		{"escaped label", after.sum("adasim_weird", map[string]string{"detail": "a \"quoted\", comma\\n"}), 1},
		{"no match", d.histMean("adasim_http_request_seconds", map[string]string{"route": "none"}, 1), 0},
	} {
		if math.Abs(tc.got-tc.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	if _, err := parseExposition("adasim_x{a=\"1\" 3\n"); err == nil {
		t.Error("unterminated label set parsed")
	}
	if _, err := parseExposition("adasim_x notanumber\n"); err == nil {
		t.Error("bad value parsed")
	}
}

// smokeSizes shrink every set-up and check so a workload runs in about
// a second.
var smokeSizes = sizes{
	setups:      2,
	warmSpecs:   8,
	warmRecords: 24,
	coldPrefill: 2,
	coldRecheck: 4,
	poolSpecs:   16,
}

// TestSmoke runs every workload briefly, traced, against a freshly built
// adasimd: the harness, its checks, the trace files and the final JSON
// line, whose metric names and units must be BENCHMARK.json's.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs adasimd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "adasimd")
	build := exec.Command("go", "build", "-o", bin, "adasim/cmd/adasimd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building adasimd: %v\n%s", err, out)
	}
	spec := readBenchmarkJSON(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{
				seed:     7,
				seconds:  1,
				trace:    true,
				traceDir: filepath.Join(dir, "trace"),
				daemon:   bin,
				workDir:  filepath.Join(dir, "work"),
				sz:       smokeSizes,
			}
			res, err := runWorkload(cfg, name)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, f := range []string{"spans.json", "layers.json", "cpu.pprof"} {
				if st, err := os.Stat(filepath.Join(cfg.traceDir, name, f)); err != nil || st.Size() == 0 {
					t.Errorf("trace file %s missing or empty (%v)", f, err)
				}
			}
			for _, traced := range []bool{false, true} {
				res.Traced = traced
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				checkFinalLine(t, res, want)
			}
		})
	}
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkFinalLine requires the final line to parse with exactly the
// contract's keys and to carry exactly the listed metrics.
func checkFinalLine(t *testing.T, res *result, want []metricSpec) {
	t.Helper()
	line, err := finalLine([]string{res.Workload}, map[string][]*result{res.Workload: {res}})
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("final line %q: %v", line, err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("final line keys: %q", line)
	}
	var metrics map[string]valueUnit
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("final line has %d metrics, BENCHMARK.json lists %d", len(metrics), len(want))
	}
	for _, m := range want {
		if vu, ok := metrics[m.Name]; !ok || vu.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, vu, ok, m.Unit)
		}
	}
}
