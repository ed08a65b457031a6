package adasim

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds vets the repository benchmark (bench/, a Go
// module of its own that ./... does not reach) against this checkout.
// bench/ imports internal APIs (core.NewPlatform, Platform.Reset/Step,
// experiments.Runner, service.JobSpec, ...), so renaming or re-signing
// one fails here instead of in the benchmark run. The module cache stays
// offline: bench/ needs nothing outside the repository.
func TestBenchModuleBuilds(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool on PATH: %v", err)
	}
	cmd := exec.Command(goTool, "vet", ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOPROXY=off", "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}
