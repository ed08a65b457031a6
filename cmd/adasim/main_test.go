package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.csv")
	cases := []struct {
		name string
		args []string
		want []string // substrings of stdout
		err  string
	}{
		{"trace", []string{"-scenario", "S4", "-fault", "rd", "-aeb", "independent", "-driver",
			"-steps", "300", "-trace", trace},
			[]string{"accident:", "AEB first braked:", "trace written to " + trace + " (300 samples)"}, ""},
		{"render", []string{"-scenario", "s1", "-fault", "curv", "-driver", "-check", "-monitor",
			"-friction", "0.5", "-steps", "300", "-render", "1"},
			[]string{"simulated:           3.0 s (300 steps)", "lane position", "   0s |", "   2s |", "outcome: "}, ""},
		{"bad fault", []string{"-fault", "curve"}, nil, `unknown fault "curve" (want none|rd|curv|mixed)`},
		{"bad render", []string{"-render", "-1"}, nil, "-render must be >= 0"},
		{"zero friction", []string{"-friction", "0"}, nil, "-friction must be > 0, got 0"},
		{"negative friction", []string{"-friction", "-0.5"}, nil, "-friction must be > 0, got -0.5"},
		{"zero steps", []string{"-steps", "0"}, nil, "-steps must be > 0, got 0"},
		{"negative steps", []string{"-steps", "-3"}, nil, "-steps must be > 0, got -3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(c.args, &stdout, &stderr)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("err = %v, want %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.String())
			}
			for _, w := range c.want {
				if !strings.Contains(stdout.String(), w) {
					t.Errorf("stdout lacks %q:\n%s", w, stdout.String())
				}
			}
		})
	}
	b, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 301 || !strings.HasPrefix(lines[0], "t,ego_s,") {
		t.Errorf("trace has %d lines, header %q", len(lines), lines[0])
	}
}
