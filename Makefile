GO ?= go

.PHONY: build vet test test-race fuzz-smoke cover bench bench-check pgo explore-smoke report-smoke recover-smoke metrics-smoke worker-smoke clean

build:
	$(GO) build ./...

# vet also fails when any Go file needs gofmt.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

test: vet
	$(GO) test ./...

# test-race runs the whole suite under the race detector. The dispatcher,
# the run pool, and the exploration/report progress paths are the
# concurrency-heavy code this guards; CI runs it as a separate job.
test-race:
	$(GO) test -race ./...

# fuzz-smoke runs each native fuzz target briefly over its seeded corpus
# (the golden wire-format fixtures): strict spec decoding must never
# panic and decode->Normalized->encode must be a fixed point. The
# internal/store target is the boot path of both framed logs: it boots
# the cache's disk tier on arbitrary segment and sidecar bytes (never
# panic; every indexed read returns CRC-clean bytes or is dropped and
# counted), and the task journal on the same bytes as a framed segment
# (boot succeeds, and the compacted journal replays to the same live
# set).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/explore
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/report
	$(GO) test -run '^$$' -fuzz FuzzSegmentStoreOpen -fuzztime=$(FUZZTIME) ./internal/store

# cover writes a coverage profile, prints the per-function summary tail
# (the total), and enforces the ratchet gate: the total must not drop
# below the COVERAGE.md snapshot minus one point (COVER_FLOOR). Raise
# the floor when COVERAGE.md's snapshot moves up. CI's test step runs
# this target, so the floor gates every push.
COVER_FLOOR ?= 86.1
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | grep -o '[0-9.]*%' | tr -d '%'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t + 0 < f + 0) { printf "FAIL: total coverage %.1f%% is below the ratchet floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage ratchet ok: %.1f%% >= %.1f%%\n", t, f }'

# bench runs the perf-tracking benchmarks (hot-loop step and its
# per-stage ledger, nn inference, campaign throughput, service
# throughput) with allocation reporting and writes the raw test2json
# stream to BENCH_step.json so future PRs can diff the perf trajectory. The previous BENCH_step.json is preserved
# under BENCH_history/ (timestamped) so the trajectory is append-only
# rather than overwritten each run. The benchmarks build with the
# shipped profile (PGO), so they time the code the binaries run.
bench:
	@if [ -f BENCH_step.json ]; then \
		mkdir -p BENCH_history; \
		cp BENCH_step.json BENCH_history/BENCH_$$(date -u +%Y%m%dT%H%M%SZ).json; \
		echo "backed up previous BENCH_step.json to BENCH_history/"; \
	fi
	$(GO) test -json -run '^$$' -pgo=cmd/adasimd/default.pgo \
		-bench 'BenchmarkSimulationStep$$|BenchmarkStepStages|BenchmarkLSTMInfer32$$|BenchmarkLSTMInferBatched$$|BenchmarkLSTMPredict$$|BenchmarkClosedLoopRun$$|BenchmarkCampaignThroughput$$|BenchmarkServiceThroughput|BenchmarkReportThroughput|BenchmarkMixedWorkloadThroughput$$|BenchmarkMixedWorkloadMultiNode$$|BenchmarkInstrumentedMixedWorkload|BenchmarkExploreBoundarySearch$$|BenchmarkJournalRecovery$$|BenchmarkDiskCacheStore' \
		-benchmem -benchtime=2s -timeout 30m . ./internal/core > BENCH_step.json
	@grep -o '"Output":"[^"]*"' BENCH_step.json | sed 's/"Output":"//;s/"$$//' \
		| tr -d '\n' | sed 's/\\n/\n/g;s/\\t/\t/g' | grep 'ns/op' || true

# bench-check is the perf smoke gate (see scripts/bench_check.sh): it
# fails if the hot simulation step or any of its stages allocates at
# all, if the paired interleaved instrumentation-overhead measurement
# exceeds 10%, or if the segment store loses its contracted margins over
# a one-file-per-entry JSON baseline (disk hit >= 1.25x, cold-start
# index build >= 10x).
bench-check:
	./scripts/bench_check.sh

# pgo writes the CPU profile that profile-guided optimization builds
# the simulation binaries with: adasimd, adasim-worker, tables and scen
# each carry a byte-identical default.pgo, which go build applies with
# no flag. The profile merges the daemon's CPU profile under all three
# benchmark workloads (a traced bench/run.sh pass on seed 9001, which
# no bench or gate uses) with the step and campaign benchmarks. Refresh
# it after a change that moves the step's profile; a stale profile
# still builds, it only optimizes less.
pgo:
	@dir=$$(mktemp -d) && \
		sh bench/run.sh -workload all -seed 9001 -seconds 20 -trace 1 -trace-dir $$dir/trace && \
		$(GO) test -run '^$$' -bench 'BenchmarkSimulationStep$$|BenchmarkCampaignThroughput$$' \
			-benchtime=5s -cpuprofile $$dir/bench.pprof -o $$dir/bench.test . && \
		$(GO) tool pprof -proto $$dir/trace/*/cpu.pprof $$dir/bench.pprof > $$dir/merged.pgo && \
		for c in adasimd adasim-worker tables scen; do cp $$dir/merged.pgo cmd/$$c/default.pgo; done && \
		rm -rf $$dir && ls -l cmd/*/default.pgo

# explore-smoke exercises the scenario-generation and exploration
# subsystem end to end at tiny scale: a seeded LHS sweep and one
# hazard-boundary search over the generated cut-in family, through the
# same engine the service uses. It catches breakage in scengen families,
# samplers, and the boundary search without pinning timings.
explore-smoke:
	$(GO) run ./cmd/scen -family cut-in -method lhs -samples 4 -steps 600 \
		-axes "trigger_gap=10:50" -fault rd -out /dev/null
	$(GO) run ./cmd/scen -family cut-in -boundary-axis trigger_gap \
		-boundary-min 5 -boundary-max 60 -tol 2 -driver -steps 800 \
		-fixed "cutin_gap=25" -out /dev/null

# report-smoke exercises the report subsystem end to end at tiny scale:
# one table and one figure through cmd/tables (now a thin client of
# internal/report), run twice against a shared on-disk cache so the
# second pass exercises the cache-served path. It catches breakage in
# the report engine, artifact rendering, and cache keying without
# pinning timings.
report-smoke:
	@dir=$$(mktemp -d) && \
		$(GO) run ./cmd/tables -reps 1 -steps 1500 -only 4,fig6 \
			-out $$dir/results -cache-dir $$dir/cache && \
		$(GO) run ./cmd/tables -reps 1 -steps 1500 -only 4,fig6 \
			-out $$dir/results -cache-dir $$dir/cache | grep "cache served" && \
		rm -rf $$dir

# recover-smoke exercises crash recovery against the real daemon: build
# adasimd and adasimctl, submit a slow job to a journaled daemon, kill
# the daemon with SIGKILL mid-run, restart it on the same journal and
# cache directories, and verify the recovered job finishes with results
# byte-identical to an uninterrupted reference daemon.
recover-smoke:
	./scripts/recover_smoke.sh

# metrics-smoke exercises the observability surface against the real
# daemon: scrape /metrics and validate the exposition grammar and key
# series, follow a live task timeline over SSE with `adasimctl task
# watch`, fetch the JSON timeline, probe pprof, and check the JSON log
# stream.
metrics-smoke:
	./scripts/metrics_smoke.sh

# worker-smoke exercises distributed execution against the real
# binaries: a coordinator with two adasim-worker processes attached,
# a report spanning many leases, a SIGKILL of one worker mid-flight
# (lease-expiry recovery), and a byte-compare of the distributed
# results against a single-node reference daemon.
worker-smoke:
	./scripts/worker_smoke.sh

clean:
	rm -f BENCH_step.json cover.out
