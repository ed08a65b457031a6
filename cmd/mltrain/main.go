// Command mltrain collects fault-free driving data from the simulation
// platform and trains the paper's ML-based hazard-mitigation baseline (a
// stacked LSTM, Section IV-D), then saves the weights for
// `tables -ml -mlweights`.
//
// Example:
//
//	mltrain -hidden 128,64 -epochs 4 -out mlbaseline.gob
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"adasim/internal/cli"
	"adasim/internal/experiments"
)

func main() { cli.Main("mltrain", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("mltrain", stderr)
	var (
		hidden = fs.String("hidden", "64,32", "comma-separated LSTM hidden sizes (paper: 128,64)")
		epochs = fs.Int("epochs", 4, "training epochs")
		stride = fs.Int("stride", 10, "training window stride")
		steps  = fs.Int("steps", 4000, "steps per data-collection run")
		seed   = fs.Int64("seed", 7, "training seed")
		out    = fs.String("out", "mlbaseline.gob", "output weights file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sizes, err := parseSizes(*hidden)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultTrainingConfig()
	cfg.Hidden = sizes
	cfg.Epochs = *epochs
	cfg.WindowStride = *stride
	cfg.Steps = *steps
	cfg.Seed = *seed

	fmt.Fprintf(stdout, "collecting fault-free data and training LSTM %v...\n", sizes)
	start := time.Now()
	net, loss, err := experiments.TrainBaseline(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trained in %v, final mean loss %.6f\n", time.Since(start).Round(time.Millisecond), loss)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := net.Save(f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "weights saved to %s\n", *out)
	return nil
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad hidden sizes %q", s)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no hidden sizes in %q", s)
	}
	return sizes, nil
}
