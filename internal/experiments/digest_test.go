package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"adasim/internal/aebs"
	"adasim/internal/core"
	"adasim/internal/fi"
	"adasim/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files")

// canaryRequests is the fixed run set behind the outcome digest: every
// scenario x {none, rd, curv, mixed} x AEB {off, comp, indep} x three
// driver/check/monitor subsets as short runs over an early patch, plus
// one full-length run per scenario and attack so the curvy stretches of
// the map and late events are covered too.
func canaryRequests() []RunRequest {
	targets := []fi.Target{fi.TargetNone, fi.TargetRelDistance, fi.TargetCurvature, fi.TargetMixed}
	aebSources := []aebs.InputSource{aebs.SourceDisabled, aebs.SourceCompromised, aebs.SourceIndependent}
	subsets := []core.InterventionSet{
		{},
		{Driver: true},
		{Driver: true, SafetyCheck: true, Monitor: true},
	}
	var reqs []RunRequest
	add := func(id scenario.ID, target fi.Target, iv core.InterventionSet, steps int, patch float64) {
		key := RunKey{Scenario: id, Gap: 60, Rep: len(reqs)}
		fault := fi.Params{}
		if target != fi.TargetNone {
			fault = fi.DefaultParams(target)
		}
		reqs = append(reqs, RunRequest{Key: key, Opts: core.Options{
			Scenario:      scenario.DefaultSpec(id, key.Gap),
			Fault:         fault,
			Interventions: iv,
			Seed:          SeedFor(1, key, 29),
			Steps:         steps,
			PatchStart:    patch,
		}})
	}
	for _, id := range scenario.All() {
		for _, target := range targets {
			for _, src := range aebSources {
				for _, iv := range subsets {
					iv.AEB = src
					add(id, target, iv, 800, 60)
				}
			}
			add(id, target, core.InterventionSet{Driver: true, AEB: aebs.SourceIndependent}, 0, 0)
		}
	}
	return reqs
}

// TestOutcomeDigest pins the canonical outcome bytes of the canary run
// set to one SHA-256. The report goldens render rates and 4-decimal
// figures, so a change that moves trajectories by a rounding step (an
// FMA contraction, a reordered sum) passes them; it moves this digest.
// A change that is meant to alter numerics regenerates the golden with
// -update and says so. Go allows other architectures to fuse
// multiply-adds, so only amd64 compares; elsewhere the digest is logged.
func TestOutcomeDigest(t *testing.T) {
	outs, err := NewPool(2).Execute(canaryRequests(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, ro := range outs {
		b, err := json.Marshal(ro.Outcome)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	got := hex.EncodeToString(h.Sum(nil))
	path := filepath.Join("testdata", "outcome_digest.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Logf("outcome digest on %s: %s (golden is amd64-only)", runtime.GOARCH, got)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Errorf("outcome digest %s, golden %s: simulated numerics changed across %d canary runs", got, w, len(outs))
	}
}
