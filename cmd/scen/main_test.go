package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"adasim/internal/explore"
)

func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stdout []string // substrings of stdout
		stderr []string // substrings of stderr
		err    string
	}{
		{"families", []string{"-families"}, []string{`"cut-in"`, `"lead-profile"`, `"convoy"`}, nil, ""},
		{"lhs", []string{"-family", "cut-in", "-method", "lhs", "-samples", "2", "-sampler-seed", "1",
			"-steps", "300", "-axes", "trigger_gap=10:50", "-fault", "RD", "-par", "2"},
			[]string{`"family": "cut-in"`, `"method": "lhs"`},
			[]string{"scen: cut-in/lhs: 2 probes (0 cached)"}, ""},
		{"bad fault", []string{"-fault", "rdd"}, nil, nil, `unknown fault "rdd"`},
		{"bad axes", []string{"-method", "lhs", "-axes", "trigger_gap"}, nil, nil, "bad axis"},
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
			for _, w := range c.stdout {
				if !strings.Contains(stdout.String(), w) {
					t.Errorf("stdout lacks %q:\n%s", w, stdout.String())
				}
			}
			for _, w := range c.stderr {
				if !strings.Contains(stderr.String(), w) {
					t.Errorf("stderr lacks %q:\n%s", w, stderr.String())
				}
			}
		})
	}

	// The LHS report decodes and carries one probe per sample.
	var stdout bytes.Buffer
	if err := run([]string{"-family", "cut-in", "-method", "lhs", "-samples", "2", "-steps", "300",
		"-axes", "trigger_gap=10:50"}, &stdout, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var rep explore.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Probes) != 2 {
		t.Errorf("report has %d probes, want 2", len(rep.Probes))
	}
}
