// Command tables regenerates every table and figure of the paper's
// evaluation section (Tables IV-VIII, Figures 5-6) from the simulation
// platform and writes them under an output directory. It is a thin
// client of internal/report: runs execute through a long-lived platform
// pool and, with -cache-dir, are served from (and written back to) the
// same content-addressed result store the adasimd service uses — so
// regenerating the paper after a campaign over the same grid is almost
// entirely cache reads.
//
// With -only 6, -rows picks Table VI rows and -breakdown adds each
// cell's per-scenario rows; that view goes to stdout only. Each row
// keeps its table-wide salt, so its cells equal the full table's.
//
// Examples:
//
//	tables                       # everything at paper scale (10 reps)
//	tables -reps 3 -only 6       # quick Table VI
//	tables -reps 3 -only 6 -rows driver,aeb-indep -breakdown
//	tables -ml -mlweights w.gob  # include the ML baseline row
//	tables -cache-dir /var/cache/adasim   # share the service's store
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"adasim/internal/cli"
	"adasim/internal/experiments"
	"adasim/internal/nn"
	"adasim/internal/report"
	"adasim/internal/store"
)

func main() { cli.Main("tables", run) }

// onlyToArtifacts maps the legacy -only vocabulary (4,5,...,fig5,ext) to
// canonical artifact names; empty selects everything.
func onlyToArtifacts(only string) ([]string, error) {
	if only == "" {
		return nil, nil
	}
	var arts []string
	for _, p := range strings.Split(only, ",") {
		p = strings.TrimSpace(p)
		switch p {
		case "4", "5", "6", "7", "8":
			arts = append(arts, "table"+p)
		case report.Fig5, report.Fig6, report.Ext, report.Weather:
			arts = append(arts, p)
		default:
			return nil, fmt.Errorf("unknown -only entry %q (want 4,5,6,7,8,fig5,fig6,ext,weather)", p)
		}
	}
	return arts, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("tables", stderr)
	var (
		reps      = fs.Int("reps", 10, "repetitions per configuration (paper: 10)")
		steps     = fs.Int("steps", 0, "steps per run (0 = paper default)")
		seed      = fs.Int64("seed", 1, "campaign base seed")
		outDir    = fs.String("out", "results", "output directory")
		only      = fs.String("only", "", "comma-separated subset: 4,5,6,7,8,fig5,fig6,ext,weather")
		withML    = fs.Bool("ml", false, "include the ML baseline row in Table VI")
		mlWeights = fs.String("mlweights", "", "trained weights from cmd/mltrain; trains a fresh model when empty")
		cacheDir  = fs.String("cache-dir", "", "optional on-disk result cache (shared with adasimd)")
		rowsArg   = fs.String("rows", "", "with -only 6: comma-separated Table VI row labels (default: all)")
		breakdown = fs.Bool("breakdown", false, "with -only 6: add each cell's per-scenario rows")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	artifacts, err := onlyToArtifacts(*only)
	if err != nil {
		return err
	}
	spec := report.Spec{Artifacts: artifacts, Reps: *reps, Steps: *steps, BaseSeed: *seed}
	if *mlWeights != "" && !*withML {
		return fmt.Errorf("-mlweights given without -ml; add -ml to include the ML baseline row")
	}

	// A row subset is minutes of compute at paper scale, so an unknown
	// label fails here, before any run (training included).
	subset := *rowsArg != "" || *breakdown
	var rows []string
	for _, r := range strings.Split(*rowsArg, ",") {
		if r = strings.TrimSpace(r); r != "" {
			rows = append(rows, r)
		}
	}
	if subset {
		if *only != "6" {
			return fmt.Errorf("-rows and -breakdown need -only 6")
		}
		known := experiments.TableVIRows(nil)
		if *withML {
			known = append(known, experiments.MLRow(nil))
		}
		if _, err := experiments.SelectCampaigns(experiments.TableVICampaigns(known), rows); err != nil {
			return err
		}
	}

	// The offline path uses the same content-addressed cache type as the
	// daemon, so a shared -cache-dir lets tables, sweeps, and the service
	// trade results.
	cache, err := store.NewResultCache(1<<16, *cacheDir, 0, nil)
	if err != nil {
		return err
	}
	eng := report.New(experiments.NewPool(0), cache)
	if *withML && wantsTable6(spec) {
		if eng.MLNet, err = loadOrTrain(stdout, *mlWeights); err != nil {
			return err
		}
	}

	start := time.Now()
	if subset {
		cs := experiments.TableVICampaigns(experiments.TableVIRows(eng.MLNet))
		if len(rows) > 0 {
			if cs, err = experiments.SelectCampaigns(cs, rows); err != nil {
				return err
			}
		}
		var t *experiments.TableVIResult
		if t, err = eng.TableVI(spec, cs); err != nil {
			return err
		}
		if *breakdown {
			fmt.Fprint(stdout, t.RenderBreakdown())
		} else {
			fmt.Fprint(stdout, t.Render())
		}
	} else {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		var res *report.Result
		if res, err = eng.Run(spec); err != nil {
			return err
		}
		for _, a := range res.Artifacts {
			// Tables and studies echo to stdout, as they always have;
			// figure CSVs only land on disk.
			if strings.HasSuffix(a.File, ".txt") {
				fmt.Fprint(stdout, a.Content)
			}
			path := filepath.Join(*outDir, a.File)
			if err := os.WriteFile(path, []byte(a.Content), 0o644); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "wrote", path)
		}
	}
	if hits := eng.Tally.Hits(); hits > 0 {
		fmt.Fprintf(stdout, "cache served %d of %d runs\n", hits, eng.Tally.Runs())
	}
	fmt.Fprintln(stdout, "total elapsed:", time.Since(start).Round(time.Millisecond))
	return nil
}

// wantsTable6 reports whether the spec computes Table VI — the only
// artifact the ML baseline feeds, so -ml skips training otherwise.
func wantsTable6(spec report.Spec) bool {
	for _, a := range spec.Normalized().Artifacts {
		if a == report.Table6 {
			return true
		}
	}
	return false
}

func loadOrTrain(stdout io.Writer, path string) (*nn.Network, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return nn.LoadNetwork(f)
	}
	fmt.Fprintln(stdout, "training the ML baseline (pass -mlweights to reuse saved weights)...")
	net, loss, err := experiments.TrainBaseline(experiments.DefaultTrainingConfig())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "trained, final loss %.6f\n", loss)
	return net, nil
}
