// Command adasimctl is the CLI client for the adasimd campaign service.
//
// Usage:
//
//	adasimctl [-addr http://127.0.0.1:8080] <command> [flags]
//
// Commands:
//
//	submit           submit a job (from -spec JSON or from flags); -wait blocks
//	explore          submit a scenario-space exploration; -wait blocks
//	report           submit a paper-artifact report; -wait blocks
//	task             verbs over a task of any kind:
//	                   task status|results|wait|cancel|watch -id <task-id>
//	scenarios        list the scenario catalogue (including families)
//	health           show daemon health, queue, pool, and cache counters
//	cache            show the result cache: memory tier and segment store
//	workers          show the remote-worker fleet (connected workers, leases)
//
// The submit verbs accept -priority interactive|bulk to override the
// kind's default scheduling class.
//
// Examples:
//
//	adasimctl submit -fault rd -driver -check -aeb indep -reps 3 -wait
//	adasimctl submit -spec job.json
//	adasimctl task results -id j000001-1a2b3c4d
//	adasimctl explore -family cut-in -boundary-axis trigger_gap -driver -fault curv -wait
//	adasimctl explore -family cut-in -method lhs -samples 32 -axes "trigger_gap=5:60" -wait
//	adasimctl report -artifacts table6,fig6 -reps 2 -wait
//	adasimctl task status -id r000002-5e6f7a8b
//	adasimctl task watch -id r000002-5e6f7a8b
//	adasimctl task cancel -id r000002-5e6f7a8b
package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"adasim/internal/cli"
	"adasim/internal/client"
	"adasim/internal/explore"
	"adasim/internal/report"
	"adasim/internal/service"
)

func main() { cli.Main("adasimctl", run) }

// ctl is one invocation: the client and where its output goes.
type ctl struct {
	c      *client.Client
	stdout io.Writer
	stderr io.Writer
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("adasimctl", stderr)
	addr := fs.String("addr", "http://127.0.0.1:8080", "adasimd base URL")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: adasimctl [-addr URL] <submit|explore|report|task|scenarios|health|cache|workers> [flags]")
		fmt.Fprintln(stderr, "       adasimctl task <status|results|wait|cancel|watch> -id <task-id>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	x := &ctl{c: client.New(*addr), stdout: stdout, stderr: stderr}
	cmd, args := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "submit":
		return x.cmdSubmit(args)
	case "explore":
		return x.cmdExplore(args)
	case "report":
		return x.cmdReport(args)
	case "task":
		return x.cmdTask(args)
	case "scenarios":
		return x.getPrint("/v1/scenarios")
	case "health":
		return x.getPrint("/healthz")
	case "cache":
		return x.cmdCache()
	case "workers":
		return x.getPrint("/v1/workers")
	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func (x *ctl) cmdSubmit(args []string) error {
	fs := cli.NewFlagSet("submit", x.stderr)
	var (
		specPath = fs.String("spec", "", "job spec JSON file ('-' = stdin); overrides the spec flags")
		reps     = fs.Int("reps", 1, "repetitions per configuration")
		steps    = fs.Int("steps", 0, "steps per run (0 = paper default)")
		seed     = fs.Int64("seed", 1, "base seed")
		salt     = fs.Int64("salt", 0, "campaign salt")
		priority = fs.String("priority", "", "scheduling class: interactive|bulk (default: kind default)")
		wait     = fs.Bool("wait", false, "wait for completion and print the results")
	)
	grid := cli.BindGrid(fs)
	attack := cli.BindAttack(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := service.JobSpec{
		Scenarios: grid.Scenarios, Gaps: grid.Gaps, Reps: *reps, Steps: *steps, BaseSeed: *seed,
		Salt: *salt, Fault: attack.Fault, Interventions: attack.Interventions,
	}
	if *specPath != "" {
		b, err := cli.ReadFileOrStdin(*specPath)
		if err != nil {
			return err
		}
		// Strict decode shared with the server: a typo'd field fails here
		// instead of silently running a different campaign.
		if spec, err = service.DecodeSpec(b); err != nil {
			return fmt.Errorf("parsing %s: %w", *specPath, err)
		}
	}
	return x.submitAndMaybeWait("jobs", spec, *priority, *wait)
}

func (x *ctl) cmdExplore(args []string) error {
	fs := cli.NewFlagSet("explore", x.stderr)
	specPath := fs.String("spec", "", "exploration spec JSON file ('-' = stdin); overrides the spec flags")
	priority := fs.String("priority", "", "scheduling class: interactive|bulk (default: kind default)")
	wait := fs.Bool("wait", false, "wait for completion and print the report")
	sf := cli.BindExplore(fs)
	if err := fs.Parse(args); err != nil {
		return err
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

	return x.submitAndMaybeWait("explorations", spec, *priority, *wait)
}

func (x *ctl) cmdReport(args []string) error {
	fs := cli.NewFlagSet("report", x.stderr)
	var (
		specPath  = fs.String("spec", "", "report spec JSON file ('-' = stdin); overrides the spec flags")
		artifacts = fs.String("artifacts", "", "comma-separated artifacts (default: all; see report.Artifacts)")
		reps      = fs.Int("reps", 0, "repetitions per configuration (0 = paper's 10)")
		steps     = fs.Int("steps", 0, "steps per run (0 = paper default)")
		seed      = fs.Int64("seed", 1, "base seed")
		priority  = fs.String("priority", "", "scheduling class: interactive|bulk (default: kind default)")
		wait      = fs.Bool("wait", false, "wait for completion and print the artifacts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var spec report.Spec
	if *specPath != "" {
		b, err := cli.ReadFileOrStdin(*specPath)
		if err != nil {
			return err
		}
		if spec, err = report.DecodeSpec(b); err != nil {
			return fmt.Errorf("parsing %s: %w", *specPath, err)
		}
	} else {
		spec = report.Spec{Reps: *reps, Steps: *steps, BaseSeed: *seed}
		if *artifacts != "" {
			for _, part := range strings.Split(*artifacts, ",") {
				spec.Artifacts = append(spec.Artifacts, strings.TrimSpace(part))
			}
		}
	}

	return x.submitAndMaybeWait("reports", spec, *priority, *wait)
}

// submitAndMaybeWait is the one submission flow every kind shares:
// submit through the task API (with an optional priority-class
// override), then either print the accepted view or wait for a terminal
// state and print the byte-exact results.
func (x *ctl) submitAndMaybeWait(kind string, spec any, priority string, wait bool) error {
	view, err := x.c.SubmitTask(kind, spec, service.PriorityClass(priority))
	if err != nil {
		return err
	}
	if !wait {
		return cli.PrintJSON(x.stdout, view)
	}
	final, err := x.c.WaitTask(view.ID)
	if err != nil {
		return err
	}
	if final.Status != service.StatusDone {
		return fmt.Errorf("%s %s %s: %s", final.Kind, final.ID, final.Status, final.Error)
	}
	return x.getPrint("/v1/tasks/" + final.ID + "/results")
}

// cmdTask is the verb surface of the task API: the same
// status/results/wait/cancel/watch flow for every kind, addressed by
// task ID.
func (x *ctl) cmdTask(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: adasimctl task <status|results|wait|cancel|watch> -id <task-id>")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "status":
		return x.cmdTaskGet(rest, "")
	case "results":
		return x.cmdTaskGet(rest, "/results")
	case "wait":
		id, err := x.parseID(rest)
		if err != nil {
			return err
		}
		view, err := x.c.WaitTask(id)
		if err != nil {
			return err
		}
		return cli.PrintJSON(x.stdout, view)
	case "cancel":
		id, err := x.parseID(rest)
		if err != nil {
			return err
		}
		view, err := x.c.CancelTask(id)
		if err != nil {
			return err
		}
		return cli.PrintJSON(x.stdout, view)
	case "watch":
		id, err := x.parseID(rest)
		if err != nil {
			return err
		}
		return x.c.WatchTask(id, func(ev service.TimelineEvent) {
			if ev.Detail != "" {
				fmt.Fprintf(x.stdout, "%s  %-16s %s\n", ev.TS.Format(time.RFC3339), ev.Event, ev.Detail)
				return
			}
			fmt.Fprintf(x.stdout, "%s  %s\n", ev.TS.Format(time.RFC3339), ev.Event)
		})
	default:
		return fmt.Errorf("unknown task verb %q (want status|results|wait|cancel|watch)", sub)
	}
}

// parseID extracts the -id flag.
func (x *ctl) parseID(args []string) (string, error) {
	fs := cli.NewFlagSet("task", x.stderr)
	id := fs.String("id", "", "task id")
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if *id == "" {
		return "", fmt.Errorf("-id is required")
	}
	return *id, nil
}

// cmdTaskGet prints /v1/tasks/<id><suffix> for the -id flag.
func (x *ctl) cmdTaskGet(args []string, suffix string) error {
	id, err := x.parseID(args)
	if err != nil {
		return err
	}
	return x.getPrint("/v1/tasks/" + id + suffix)
}

// cmdCache renders the result-cache slice of /healthz: the in-memory
// LRU counters, and — when the disk tier is on — the segment store's
// segment/index/byte accounting and its compaction and GC history.
func (x *ctl) cmdCache() error {
	var health service.HealthResponse
	if err := x.c.GetJSON("/healthz", &health); err != nil {
		return err
	}
	st := health.Cache
	fmt.Fprintf(x.stdout, "memory tier: %d/%d entries, %d hits (%d from disk), %d misses, %d evictions\n",
		st.Entries, st.MaxSize, st.Hits, st.DiskHits, st.Misses, st.Evictions)
	if st.EncodedHits+st.EncodedMisses > 0 {
		fmt.Fprintf(x.stdout, "results path: %d encoded reads (%d hits, %d misses) counted above\n",
			st.EncodedHits+st.EncodedMisses, st.EncodedHits, st.EncodedMisses)
	}
	if st.Disk == nil {
		fmt.Fprintln(x.stdout, "disk tier: off")
		return nil
	}
	d := st.Disk
	fmt.Fprintf(x.stdout, "segment store: %d segments, %d indexed keys, %d live bytes, %d dead bytes",
		d.Segments, d.IndexEntries, d.LiveBytes, d.DeadBytes)
	if d.MaxBytes > 0 {
		fmt.Fprintf(x.stdout, " (budget %d)", d.MaxBytes)
	}
	fmt.Fprintln(x.stdout)
	fmt.Fprintf(x.stdout, "maintenance: %d compactions, %d segments gc'd (%d bytes), %d corrupt records\n",
		d.Compactions, d.GCSegments, d.GCBytes, d.CorruptRecords)
	if e := st.DiskErrors; e.Read+e.Write+e.Decode > 0 {
		fmt.Fprintf(x.stdout, "disk errors: %d read, %d write, %d decode\n", e.Read, e.Write, e.Decode)
	}
	return nil
}

// getPrint fetches path and prints the raw response body, preserving the
// server's byte-exact encoding.
func (x *ctl) getPrint(path string) error {
	b, err := x.c.GetRaw(path)
	if err != nil {
		return err
	}
	_, err = x.stdout.Write(b)
	return err
}
