// Command scen runs scenario-space explorations offline, without the
// adasimd daemon: full-factorial grid sweeps, seeded Latin-hypercube and
// Monte-Carlo sampling, and hazard-boundary searches over the parametric
// scenario families (internal/scengen), executed on an in-process pool
// of long-lived platforms. The report JSON goes to stdout (or -out); a
// human summary goes to stderr.
//
// Examples:
//
//	scen -families
//	scen -family cut-in -method lhs -samples 32 -axes "trigger_gap=5:60,lane_change_time=1:6" -fault rd
//	scen -family cut-in -boundary-axis trigger_gap -driver -fault curv -tol 0.5
//	scen -family lead-profile -method grid -axes "trigger_gap=20:80:7,decel=1:9:5" -fixed "target_speed=0"
package main

import (
	"fmt"
	"io"
	"os"
	"sync"

	"adasim/internal/cli"
	"adasim/internal/experiments"
	"adasim/internal/explore"
	"adasim/internal/scengen"
	"adasim/internal/store"
)

func main() { cli.Main("scen", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("scen", stderr)
	var (
		listFams = fs.Bool("families", false, "print the family catalogue and exit")
		specPath = fs.String("spec", "", "exploration spec JSON file ('-' = stdin); overrides the spec flags")
		par      = fs.Int("par", 0, "worker parallelism (0 = GOMAXPROCS)")
		cacheDir = fs.String("cache-dir", "", "optional on-disk result cache (shared with adasimd)")
		out      = fs.String("out", "", "write the report JSON here instead of stdout")
	)
	sf := cli.BindExplore(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listFams {
		return cli.PrintJSON(stdout, scengen.Families())
	}

	var spec explore.Spec
	var err error
	if *specPath != "" {
		b, err := cli.ReadFileOrStdin(*specPath)
		if err != nil {
			return err
		}
		if spec, err = explore.DecodeSpec(b); err != nil {
			return fmt.Errorf("parsing %s: %w", *specPath, err)
		}
	} else if spec, err = sf.Spec(); err != nil {
		return err
	}

	// The offline path uses the same content-addressed cache type as the
	// daemon, so a shared -cache-dir lets sweeps and the service trade
	// results.
	cache, err := store.NewResultCache(1<<16, *cacheDir, 0, nil)
	if err != nil {
		return err
	}
	eng := explore.New(experiments.NewPool(*par), cache)
	var progressMu sync.Mutex
	done := 0
	eng.Tally.OnAdd = func(completed, cacheHits int) { // called from worker goroutines
		progressMu.Lock()
		defer progressMu.Unlock()
		if completed > done {
			done = completed
			fmt.Fprintf(stderr, "scen: %d probes done (%d cached)\n", completed, cacheHits)
		}
	}
	rep, err := eng.Run(spec)
	if err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := cli.PrintJSON(w, rep); err != nil {
		return err
	}
	summarize(stderr, rep, eng.Tally)
	return nil
}

// summarize prints the human-readable exploration outcome to w.
func summarize(w io.Writer, rep *explore.Report, tally *experiments.Tally) {
	accidents := 0
	for _, p := range rep.Probes {
		if p.Accident() {
			accidents++
		}
	}
	fmt.Fprintf(w, "scen: %s/%s: %d probes (%d cached), %d accidents\n",
		rep.Family, rep.Method, tally.Runs(), tally.Hits(), accidents)
	if b := rep.Boundary; b != nil {
		if b.Bracketed {
			fmt.Fprintf(w, "scen: hazard boundary on %s: frontier %.3f (bracket [%.3f, %.3f], converged=%v, %d probes)\n",
				b.Axis, b.Frontier, b.Lo, b.Hi, b.Converged, b.Probes)
		} else {
			fmt.Fprintf(w, "scen: no frontier on %s in [%v, %v]: accident everywhere=%v\n",
				b.Axis, b.Lo, b.Hi, b.AccidentAtMin)
		}
	}
}
