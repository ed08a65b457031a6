// Package cli is the one flag vocabulary of the adasim commands. It
// binds the paper's run vocabulary — scenarios, initial gaps, the
// perception attack, and the safety interventions — onto a
// flag.FlagSet and yields scenario IDs, fi.Params and a
// core.InterventionSet, so every binary accepts the same spellings.
package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"adasim/internal/aebs"
	"adasim/internal/core"
	"adasim/internal/fi"
	"adasim/internal/scenario"
)

// label is one row of a spelling table: every accepted spelling of a
// value, the canonical one first. Lookups are case-insensitive.
type label[T any] struct {
	names []string
	value T
}

var faultLabels = []label[fi.Target]{
	{[]string{"none", "off", ""}, fi.TargetNone},
	{[]string{"rd", "relative-distance"}, fi.TargetRelDistance},
	{[]string{"curv", "curvature", "desired-curvature"}, fi.TargetCurvature},
	{[]string{"mixed"}, fi.TargetMixed},
}

var aebLabels = []label[aebs.InputSource]{
	{[]string{"off", "none", ""}, 0},
	{[]string{"comp", "compromised"}, aebs.SourceCompromised},
	{[]string{"indep", "independent"}, aebs.SourceIndependent},
}

// scenarioLabels accepts each scripted scenario as S<n> or <n>.
var scenarioLabels = func() []label[scenario.ID] {
	var ls []label[scenario.ID]
	for _, id := range scenario.All() {
		ls = append(ls, label[scenario.ID]{[]string{id.String(), strconv.Itoa(int(id))}, id})
	}
	return ls
}()

// lookup resolves s against a spelling table. An unknown spelling is an
// error listing the canonical ones.
func lookup[T any](kind, s string, table []label[T]) (T, error) {
	key := strings.TrimSpace(s)
	for _, l := range table {
		for _, n := range l.names {
			if strings.EqualFold(key, n) {
				return l.value, nil
			}
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (want %s)", kind, s, canonical(table))
}

func canonical[T any](table []label[T]) string {
	names := make([]string, len(table))
	for i, l := range table {
		names[i] = l.names[0]
	}
	return strings.Join(names, "|")
}

// nameOf returns v's canonical spelling (the flag's displayed value).
func nameOf[T comparable](table []label[T], v T) string {
	for _, l := range table {
		if l.value == v {
			return l.names[0]
		}
	}
	return fmt.Sprint(v)
}

func parseFault(s string) (fi.Params, error) {
	t, err := lookup("fault", s, faultLabels)
	if err != nil || t == fi.TargetNone {
		return fi.Params{}, err
	}
	return fi.DefaultParams(t), nil
}

// parseScenarios and parseGaps read comma-separated lists; an empty
// list stands for the default grid.
func parseScenarios(s string) ([]scenario.ID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var ids []scenario.ID
	for _, part := range strings.Split(s, ",") {
		id, err := lookup("scenario", part, scenarioLabels)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func parseGaps(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var gaps []float64
	for _, part := range strings.Split(s, ",") {
		gap, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad gap %q: %w", part, err)
		}
		gaps = append(gaps, gap)
	}
	return gaps, nil
}

// value adapts a parse function to flag.Value, so a bad spelling fails
// at flag parsing with the flag's name in the message.
type value[T any] struct {
	p     *T
	parse func(string) (T, error)
	show  func(T) string
}

func (v value[T]) String() string {
	if v.p == nil {
		return ""
	}
	return v.show(*v.p)
}

func (v value[T]) Set(s string) error {
	x, err := v.parse(s)
	if err == nil {
		*v.p = x
	}
	return err
}

func joinIDs(ids []scenario.ID) string {
	s := make([]string, len(ids))
	for i, id := range ids {
		s[i] = id.String()
	}
	return strings.Join(s, ",")
}

// Scenario is one scripted run: -scenario and -gap.
type Scenario struct {
	ID  scenario.ID
	Gap float64
}

// BindScenario registers -scenario (default S1) and -gap (default 60 m).
func BindScenario(fs *flag.FlagSet) *Scenario {
	s := &Scenario{ID: scenario.S1, Gap: 60}
	fs.Var(value[scenario.ID]{&s.ID, func(x string) (scenario.ID, error) {
		return lookup("scenario", x, scenarioLabels)
	}, scenario.ID.String}, "scenario", "driving `scenario`: S1..S6")
	fs.Float64Var(&s.Gap, "gap", s.Gap, "initial gap to the lead vehicle (m), e.g. 60 or 230")
	return s
}

// Grid is a campaign's scenario grid: -scenarios and -gaps. Empty
// lists mean the service default (all six scenarios, gaps 60 and 230).
type Grid struct {
	Scenarios []scenario.ID
	Gaps      []float64
}

// BindGrid registers -scenarios and -gaps as comma-separated lists.
func BindGrid(fs *flag.FlagSet) *Grid {
	g := &Grid{}
	fs.Var(value[[]scenario.ID]{&g.Scenarios, parseScenarios, joinIDs},
		"scenarios", "comma-separated `scenarios`, S1..S6 (default: all)")
	fs.Var(value[[]float64]{&g.Gaps, parseGaps, func(g []float64) string {
		return strings.ReplaceAll(strings.Trim(fmt.Sprint(g), "[]"), " ", ",")
	}}, "gaps", "comma-separated initial `gaps` in metres (default: 60,230)")
	return g
}

// Attack is the perception attack and the safety interventions:
// -fault, -driver, -check, -aeb and -monitor.
type Attack struct {
	Fault         fi.Params
	Interventions core.InterventionSet
}

// BindAttack registers the attack and intervention flags.
func BindAttack(fs *flag.FlagSet) *Attack {
	a := &Attack{}
	iv := &a.Interventions
	fs.Var(value[fi.Params]{&a.Fault, parseFault, func(p fi.Params) string {
		return nameOf(faultLabels, p.Target)
	}}, "fault", "perception attack: `"+canonical(faultLabels)+"`")
	fs.BoolVar(&iv.Driver, "driver", false, "enable the driver reaction model")
	fs.BoolVar(&iv.SafetyCheck, "check", false, "enable the firmware safety checker")
	fs.Var(value[aebs.InputSource]{&iv.AEB, func(x string) (aebs.InputSource, error) {
		return lookup("aeb source", x, aebLabels)
	}, func(s aebs.InputSource) string { return nameOf(aebLabels, s) }},
		"aeb", "AEBS input source: `"+canonical(aebLabels)+"`")
	fs.BoolVar(&iv.Monitor, "monitor", false, "enable the runtime anomaly monitor")
	return a
}

// Main is the exit-code shim of a command whose body is
// run(args, stdout, stderr): -h exits 0, any other error is printed
// with the command's name and exits 1.
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// NewFlagSet returns a flag set that reports parse errors to stderr and
// returns them instead of exiting.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// PrintJSON writes v to w as indented JSON.
func PrintJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// ReadFileOrStdin reads path, or standard input when path is "-".
func ReadFileOrStdin(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}
