package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adasim/internal/nn"
)

func TestRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "net.gob")
	var stdout bytes.Buffer
	err := run([]string{"-hidden", "4", "-epochs", "1", "-steps", "200", "-out", out}, &stdout, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "weights saved to "+out) {
		t.Errorf("stdout:\n%s", stdout.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := nn.LoadNetwork(f); err != nil {
		t.Fatalf("saved weights do not load: %v", err)
	}

	for _, bad := range []string{"", "4,x", "0", "-3"} {
		if err := run([]string{"-hidden", bad}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("-hidden %q: want an error", bad)
		}
	}
}
