// Command bench is adasim's end-to-end benchmark. It builds nothing
// itself (run.sh builds it and adasimd from source); it spawns the real
// daemon on a loopback port per workload, drives it over HTTP through
// internal/client in closed loop, checks every output it can, and
// prints each metric as `workload metric value unit`. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
//
// Usage (from the repository root):
//
//	sh bench/run.sh -workload warm-hits -seed 1 -seconds 20 -trace 0
//	sh bench/run.sh -workload all -runs 5          # repeatability table
//
// See bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// buildDir holds everything building and running the benchmark leaves
// behind: binaries (run.sh builds adasimd into bin/), the Go build
// cache, daemon state and traces. Paths are relative to the repository
// root, the benchmark's working directory.
const buildDir = ".bench_build"

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadArg = flag.String("workload", "all", "workload: "+strings.Join(workloadNames, ", ")+", or all")
		seed        = flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
		seconds     = flag.Float64("seconds", 20, "timed seconds per run")
		trace       = flag.Int("trace", 0, "1 = traced run: per-layer metrics, plus spans.json, layers.json and cpu.pprof under -trace-dir")
		traceDir    = flag.String("trace-dir", filepath.Join(buildDir, "trace"), "directory for the traced run's files")
		runs        = flag.Int("runs", 1, "repeatability mode: run each workload N times, seeds seed..seed+N-1, and print median and quartiles per metric")
		out         = flag.String("out", "", "also write every run's full result as JSON to this file")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -runs at least 1")
		return 2
	}
	names := workloadNames
	if *workloadArg != "all" {
		names = strings.Split(*workloadArg, ",")
	}
	cfg := runConfig{
		seconds:  *seconds,
		trace:    *trace == 1,
		traceDir: *traceDir,
		daemon:   filepath.Join(buildDir, "bin", "adasimd"),
		workDir:  filepath.Join(buildDir, "work"),
		sz:       fullSizes,
	}

	var all []*result
	byWorkload := map[string][]*result{}
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			cfg.seed = *seed + int64(i)
			res, err := runWorkload(cfg, name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			printResult(res)
			all = append(all, res)
			byWorkload[name] = append(byWorkload[name], res)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, all); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *runs > 1 {
		printSpread(names, byWorkload, loadBounds("BENCHMARK.json"))
	}

	summary, err := finalLine(names, byWorkload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(summary)
	if !allCorrect(all) {
		fmt.Fprintln(os.Stderr, "bench: a correctness check failed")
		return 1
	}
	return 0
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func printResult(res *result) {
	w := res.Workload
	for _, m := range res.EndToEnd {
		fmt.Printf("%s %s %s %s\n", w, m.Name, fmtNum(m.Value), m.Unit)
	}
	fmt.Printf("%s job_latency_samples %d count\n", w, res.JobSamples)
	if res.TailPercentile > 0 {
		fmt.Printf("%s job_latency_p%s_ms %s ms\n", w, fmtNum(res.TailPercentile), fmtNum(res.TailMs))
	}
	for _, m := range res.PerLayer {
		fmt.Printf("%s %s %s %s\n", w, m.Name, fmtNum(m.Value), m.Unit)
	}
	for _, c := range res.Checks {
		verdict := "pass"
		if !c.OK {
			verdict = fmt.Sprintf("FAIL (%d)", c.Fails)
		}
		fmt.Printf("%s check.%s %s: %s\n", w, c.Name, verdict, c.Detail)
	}
}

// metricsOf is the metric set the final line reports for a result.
func metricsOf(res *result) []metric {
	if res.Traced {
		return res.PerLayer
	}
	return res.EndToEnd
}

// printSpread prints, per workload and metric, the median and quartiles
// over the runs and the spread (q3-q1)/median, flagging an end-to-end
// metric whose spread exceeds its bound in BENCHMARK.json.
func printSpread(names []string, byWorkload map[string][]*result, bounds map[string]float64) {
	for _, name := range names {
		rs := byWorkload[name]
		for j, m := range metricsOf(rs[0]) {
			vals := make([]float64, len(rs))
			for i, res := range rs {
				vals[i] = metricsOf(res)[j].Value
			}
			q1, q2, q3 := quartiles(vals)
			spread := ratio(q3-q1, math.Abs(q2))
			line := fmt.Sprintf("%s %s median %s q1 %s q3 %s spread %.4f", name, m.Name, fmtNum(q2), fmtNum(q1), fmtNum(q3), spread)
			if b, ok := bounds[m.Name]; ok {
				line += fmt.Sprintf(" bound %.2f", b)
				if spread > b {
					line += " WIDE"
				}
			}
			fmt.Println(line)
		}
	}
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json; a missing
// file yields none (the spread table is printed without verdicts).
func loadBounds(path string) map[string]float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return nil
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the closing JSON object. With one workload its metrics
// are that workload's (medians over -runs); with several, each name is
// prefixed by its workload.
func finalLine(names []string, byWorkload map[string][]*result) (string, error) {
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	for _, name := range names {
		rs := byWorkload[name]
		for j, m := range metricsOf(rs[0]) {
			vals := make([]float64, len(rs))
			for i, res := range rs {
				vals[i] = metricsOf(res)[j].Value
			}
			v := median(vals)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "", fmt.Errorf("%s %s is not finite", name, m.Name)
			}
			key := m.Name
			if len(names) > 1 {
				key = name + "." + m.Name
			}
			line.Metrics[key] = valueUnit{v, m.Unit}
		}
		for _, res := range rs {
			line.Correct = line.Correct && res.Correct
			line.Attempted += res.Attempted
			line.Failed += res.Failed
		}
	}
	b, err := json.Marshal(line)
	return string(b), err
}

func allCorrect(rs []*result) bool {
	for _, r := range rs {
		if !r.Correct {
			return false
		}
	}
	return true
}
