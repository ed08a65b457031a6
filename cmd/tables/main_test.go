package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adasim/internal/experiments"
)

// tiny is the scale every case runs at: one rep of 3-second runs.
var tiny = []string{"-reps", "1", "-steps", "300"}

func runTables(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(append(append([]string(nil), tiny...), args...), &stdout, &stderr)
	return stdout.String(), err
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	weights := filepath.Join(dir, "net.gob")
	cfg := experiments.DefaultTrainingConfig()
	cfg.Hidden, cfg.Epochs, cfg.Steps = []int{4}, 1, 200
	net, _, err := experiments.TrainBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(weights)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := filepath.Join(dir, "results")
	cases := []struct {
		name string
		args []string
		want []string // substrings of stdout
		err  string
	}{
		{"only 4", []string{"-only", "4", "-out", out},
			[]string{"TABLE IV", "wrote " + filepath.Join(out, "table4.txt")}, ""},
		{"only 7", []string{"-only", "7", "-out", out},
			[]string{"TABLE VII", "wrote " + filepath.Join(out, "table7.txt")}, ""},
		{"only ext", []string{"-only", "ext", "-out", out},
			[]string{"EXTENSION STUDY", "wrote " + filepath.Join(out, "extension_study.txt")}, ""},
		{"rows breakdown", []string{"-only", "6", "-rows", "driver,aeb-indep", "-breakdown", "-out", out},
			[]string{"relative-distance  aeb-indep", "                   driver", "                     S6 "}, ""},
		{"ml weights", []string{"-only", "6", "-rows", "ml-model", "-ml", "-mlweights", weights, "-out", out},
			[]string{"mixed              ml-model"}, ""},
		{"rows need only 6", []string{"-only", "4,6", "-rows", "driver"}, nil, "-rows and -breakdown need -only 6"},
		{"breakdown needs only 6", []string{"-breakdown"}, nil, "-rows and -breakdown need -only 6"},
		{"unknown row", []string{"-only", "6", "-ml", "-rows", "driver,aeb-indpe"}, nil,
			`unknown row "aeb-indpe"; valid rows: none, driver+check,`},
		{"ml row without -ml", []string{"-only", "6", "-rows", "ml-model"}, nil, `unknown row "ml-model"`},
		{"weights without -ml", []string{"-only", "6", "-mlweights", weights}, nil, "-mlweights given without -ml"},
		{"bad only", []string{"-only", "9"}, nil, `unknown -only entry "9"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stdout, err := runTables(t, c.args...)
			if c.err != "" {
				// Rejected before any run: nothing trained, nothing printed.
				if err == nil || !strings.Contains(err.Error(), c.err) || stdout != "" {
					t.Fatalf("err = %v, stdout %q; want %q and no output", err, stdout, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range c.want {
				if !strings.Contains(stdout, w) {
					t.Errorf("stdout lacks %q:\n%s", w, stdout)
				}
			}
		})
	}
	if _, err := os.Stat(filepath.Join(out, "table6.txt")); !os.IsNotExist(err) {
		t.Errorf("a -rows run wrote table6.txt (stat err %v)", err)
	}
}

// cells maps "fault/row" to the cell columns of every Table VI line in
// out, skipping the per-scenario breakdown lines.
func cells(out string) map[string]string {
	m := map[string]string{}
	fault := ""
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "% |") || len(line) < 19 {
			continue
		}
		if f := strings.TrimSpace(line[:18]); f != "" {
			fault = f
		}
		if row := strings.Fields(line[19:])[0]; !strings.HasPrefix(row, "S") {
			m[fault+"/"+row] = line[19:]
		}
	}
	return m
}

// TestRowSubsetKeepsTableSalts: a -rows subset must print the full
// table's cells for those rows byte for byte, and after the full run
// every run is a cache hit. Filtering rows before TableVICampaigns
// re-salts them by subset position and fails both checks.
func TestRowSubsetKeepsTableSalts(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache")
	out := filepath.Join(t.TempDir(), "results")
	full, err := runTables(t, "-only", "6", "-out", out, "-cache-dir", cache)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := runTables(t, "-only", "6", "-rows", "driver,aeb-indep", "-breakdown", "-out", out, "-cache-dir", cache)
	if err != nil {
		t.Fatal(err)
	}
	fullCells, subCells := cells(full), cells(sub)
	if len(fullCells) != 21 || len(subCells) != 6 {
		t.Fatalf("parsed %d full cells and %d subset cells, want 21 and 6:\n%s\n%s", len(fullCells), len(subCells), full, sub)
	}
	for key, line := range subCells {
		if fullCells[key] != line {
			t.Errorf("%s differs from the full table:\nsubset %s\nfull   %s", key, line, fullCells[key])
		}
	}
	if !strings.Contains(sub, "cache served 72 of 72 runs") {
		t.Errorf("subset after the full table was not all cache hits:\n%s", sub)
	}
}
