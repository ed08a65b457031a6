// Command adasim-worker is the remote worker node of the distributed
// execution tier: a thin shell around internal/worker that registers
// with an adasimd coordinator, long-polls for leased run batches,
// executes them on a local pool of long-lived simulation platforms, and
// reports the outcomes back.
//
// Examples:
//
//	adasim-worker -coordinator http://coord:8080
//	adasim-worker -coordinator http://coord:8080 -parallelism 8 -name rack7
//
// A worker is stateless: SIGINT/SIGTERM deregisters it (its in-flight
// lease re-queues immediately), and a SIGKILLed worker merely lets its
// lease expire — the coordinator re-executes the batch elsewhere with
// byte-identical results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adasim/internal/obs"
	"adasim/internal/worker"
)

func main() {
	if err := run(); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "adasim-worker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		coordinator = flag.String("coordinator", "http://127.0.0.1:8080", "coordinator base URL")
		name        = flag.String("name", defaultName(), "worker label shown in the coordinator's fleet view")
		parallelism = flag.Int("parallelism", 0, "runs executed at once, each on a long-lived platform (0 = GOMAXPROCS)")
		leaseWait   = flag.Duration("lease-wait", 2*time.Second, "long-poll wait per lease request")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, or error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := worker.New(worker.Config{
		Coordinator: *coordinator,
		Name:        *name,
		Parallelism: *parallelism,
		LeaseWait:   *leaseWait,
		Logger:      logger,
	})
	return w.Run(ctx)
}

// defaultName labels the worker with its hostname when -name is not
// given.
func defaultName() string {
	host, err := os.Hostname()
	if err != nil {
		return "worker"
	}
	return host
}
