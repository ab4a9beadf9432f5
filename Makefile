# Development and CI entry points. `make ci` is the full gate every PR must
# pass: formatting, vet, build, the race-instrumented test suite (including a
# focused pass over the snapshot-persistence paths) and a short benchmark
# smoke run. `make bench-json` records the batch and persistence benchmarks
# as BENCH_batch.json / BENCH_persist.json; `make bench-diff` compares a
# fresh run against the committed baselines (warn-only).

GO ?= go

.PHONY: ci fmt-check vet build perfbench-build test race race-persist experiments-check fuzz-short bench-smoke bench-json bench-ctx bench-sample bench-local bench-load bench-fabric bench-trace bench-diff load-smoke fleet-smoke trace-smoke

ci: fmt-check vet build perfbench-build race race-persist experiments-check bench-smoke load-smoke fleet-smoke trace-smoke

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# perfbench is a module of its own (perfbench/go.mod), so the root vet and
# build never see it; vet and compile it here, so a change to the server or
# facade types its harness wraps fails CI instead of the next benchmark run.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# -shuffle=on randomizes test (and subtest) execution order so
# order-dependent tests fail in CI instead of in production debugging
# sessions; the seed is printed on failure for local reproduction.
race:
	$(GO) test -race -shuffle=on ./...

# Focused race pass over the persistence layer, shared sampler state and the
# channel fabric: concurrent DirCache writers, write-behind goroutines and
# warm-restart loads run with -count=2 so the second round exercises the
# populated-directory paths; the AliasSharing suites race the once-guarded
# lazy alias-table build across goroutines sharing one channel; the fabric
# suites race tier promotion, hedged fetches, fault-injected backings and the
# in-process fleet tests; the session Concurrent/Journal suites hammer
# Spend/Refund/Save across shards while the journal appends and compacts;
# the ReportBatch suites race the pooled batch descent's chunked fan-out over
# the per-batch memo its workers share (in the internal/descent engine and
# its internal/core and internal/adaptive partitions), pin its output to the
# per-point path and count its cold solves, and SearchCum pins the inline
# cumulative-row search to sort.SearchFloat64s.
race-persist:
	$(GO) test -race -count=2 -run 'Snapshot|DirCache|Backing|WarmRestart|CacheBytes|AliasSharing|LocalParallel|RelevanceDomain|Remote|Tiered|Ring|Fabric|Fleet|Concurrent|Journal|Rollover|Trace|ReportBatch|SearchCum' \
		./internal/channel ./internal/opt ./internal/fabric ./internal/session ./internal/server ./internal/descent ./internal/core ./internal/adaptive .

# Regenerate the seeded tables of six experiments (a few seconds in all) and
# fail when any table row of the output is not in EXPERIMENTS.md verbatim:
# refactors must leave the documented figures unchanged.
experiments-check:
	@out=$$($(GO) run ./cmd/experiments -format markdown fig6 fig7 fig10 audit ablation adaptive) || exit 1; \
	rows=$$(printf '%s\n' "$$out" | grep '^|'); \
	if [ -z "$$rows" ]; then echo "experiments-check: no table rows generated"; exit 1; fi; \
	stale=$$(printf '%s\n' "$$rows" | grep -vxFf EXPERIMENTS.md); \
	if [ -n "$$stale" ]; then \
		echo "experiments-check: regenerated rows missing from EXPERIMENTS.md:"; echo "$$stale"; exit 1; \
	fi; \
	echo "experiments-check: $$(printf '%s\n' "$$rows" | wc -l) table rows match EXPERIMENTS.md"

# Short native-fuzz pass over the two snapshot decode layers (the checksummed
# frame in internal/channel and the channel payload codec in internal/opt),
# the session journal and the server's request parser (against encoding/json).
# A budgeted smoke run for CI — soak runs can raise -fuzztime freely; new
# crashers land in testdata/fuzz and should be committed as regression seeds.
fuzz-short:
	$(GO) test -run xxx -fuzz FuzzSnapshotLoad -fuzztime 10s ./internal/channel
	$(GO) test -run xxx -fuzz FuzzSnapshotCodec -fuzztime 10s ./internal/opt
	$(GO) test -run xxx -fuzz FuzzLocalRelevance -fuzztime 10s ./internal/opt
	$(GO) test -run xxx -fuzz FuzzJournalRecord -fuzztime 10s ./internal/session
	$(GO) test -run xxx -fuzz FuzzSessionSnapshot -fuzztime 10s ./internal/session
	$(GO) test -run xxx -fuzz FuzzReportDecode -fuzztime 10s ./internal/server

bench-smoke:
	$(GO) test -run xxx -bench 'MSMReportParallel|AdaptiveReportParallel|ReportBatch/msm|ReportLoop/msm' -benchtime 50x .

# Short load run against an in-process server: mixed report/batch traffic
# with disconnect chaos, gated on zero 5xx responses and a sane p99. This is
# the CI check that the serving stack (routing, instrumentation, budget
# accounting, admission control) survives concurrent load, not a
# performance benchmark — the p99 bound is deliberately loose for noisy
# shared runners.
load-smoke:
	$(GO) run ./cmd/loadgen -self -duration 5s -workers 8 -self-budget 50 \
		-max-5xx 0 -max-p99 500ms -out /tmp/load_smoke.json > /dev/null

# Record the committed load baseline (BENCH_load.json): a 10s closed-loop
# run against the in-process server. Regenerate deliberately, on a quiet
# machine, like every other BENCH_*.json baseline.
bench-load:
	$(GO) run ./cmd/loadgen -self -duration 10s -workers 8 -self-budget 50 \
		-out BENCH_load.json > /dev/null
	@echo wrote BENCH_load.json

# Record the batch benchmark sweep as JSON (the committed baseline lives at
# BENCH_batch.json; regenerate it deliberately, on a quiet machine).
bench-json:
	$(GO) test -run xxx -bench 'ReportBatch|ReportLoop|ServerBatchThroughput|ServerSingleReports' \
		-benchtime 300x -benchmem . ./internal/server/ | $(GO) run ./cmd/benchjson > BENCH_batch.json
	@echo wrote BENCH_batch.json
	$(GO) test -run xxx -bench 'ColdStart|WarmRestart' \
		-benchtime 3x -benchmem . | $(GO) run ./cmd/benchjson > BENCH_persist.json
	@echo wrote BENCH_persist.json

# Record the cancellation-plumbing overhead benchmarks as BENCH_ctx.json:
# warm Report / ReportBatch under the legacy, background-ctx and
# cancelable-ctx calling conventions. The committed baseline documents the
# tentpole claim that ctx plumbing costs the warm path <2%.
bench-ctx:
	$(GO) test -run xxx -bench 'CtxOverhead' -benchtime 2s -benchmem . \
		| $(GO) run ./cmd/benchjson > BENCH_ctx.json
	@echo wrote BENCH_ctx.json

# Record the warm-path sampler benchmarks as BENCH_sample.json: cum vs alias
# draw cost (dense and compact channels), the full SampleVia report path, the
# one-time alias-table build, and on-disk snapshot sizes (retired v1 dense vs
# v2 dense vs v2 compact, reported as B/op). The committed baseline documents
# the alias >=5x warm-path and compact >=4x snapshot-size claims.
bench-sample:
	$(GO) test -run xxx -bench 'SamplerDraw|SampleViaReport|AliasBuild|SnapshotBytes' \
		-benchtime 1s -benchmem ./internal/opt | $(GO) run ./cmd/benchjson > BENCH_sample.json
	@echo wrote BENCH_sample.json

# Record the locally relevant OPT benchmarks as BENCH_local.json: per-channel
# solve time dense vs local at n=144 on the same concentrated prior, plus the
# n=1024 precompute that the dense LP cannot attempt at all (~10^9 constraint
# rows). The committed baseline documents the >=10x solve-time claim; the
# `cells/solve` metric records how many LP variables each construction solved
# over. The dense n=144 side takes ~20s per solve - run on a quiet machine.
bench-local:
	$(GO) test -run xxx -bench 'LocalVsDense|LocalPrecompute' \
		-benchtime 1x -benchmem ./internal/opt | $(GO) run ./cmd/benchjson > BENCH_local.json
	@echo wrote BENCH_local.json

# Record the channel-fabric fleet benchmarks as BENCH_fabric.json: total LP
# solves for a 2-replica fabric-joined fleet vs two isolated replicas over the
# same cold key space (the committed baseline documents the >=1.8x solve
# reduction), plus remote-fetch latency quantiles as custom metrics.
bench-fabric:
	$(GO) test -run xxx -bench 'FabricFleet|FabricIsolated' \
		-benchtime 3x -benchmem . | $(GO) run ./cmd/benchjson > BENCH_fabric.json
	@echo wrote BENCH_fabric.json

# Two-process fleet smoke: builds the real geoind-server binary, starts two
# replicas joined by -peers/-fabric-self with distinct cache dirs, drives
# mixed concurrent traffic, and asserts zero 5xx, fleet-total LP solves equal
# to the unique-channel count (exactly-once), and clean degradation to local
# solves after the owner replica is SIGKILLed.
fleet-smoke:
	GEOIND_FLEET_SMOKE=1 $(GO) test -run TestFleetSmoke -v -timeout 300s ./cmd/geoind-server/

# Record the trace-pipeline baseline (BENCH_trace.json): the stateful
# /v1/trace endpoint over a journaled session store (latency quantiles +
# memo-hit rate), the offline predictive-vs-independent budget economics
# (spend_ratio <= 0.5 at equal-or-better adversary error), and the per-record
# journal durability cost. Custom units survive into the JSON via benchjson's
# metrics map. Regenerate deliberately, on a quiet machine.
bench-trace:
	{ $(GO) test -run xxx -bench 'TraceEndpoint|TracePredictiveSavings' \
		-benchtime 3x -benchmem . ; \
	  $(GO) test -run xxx -bench 'JournalAppend' -benchtime 2000x -benchmem ./internal/session ; } \
	  | $(GO) run ./cmd/benchjson > BENCH_trace.json
	@echo wrote BENCH_trace.json

# Single-process crash-durability smoke: builds the real geoind-server binary
# with a journaled -ledger-dir and the /v1/trace pipeline enabled, SIGKILLs
# it with concurrent trace traffic in flight, restarts it on the same journal
# and asserts no user over-spent their window budget, zero 5xx throughout,
# and that a stationary user's memoized release survived the crash.
trace-smoke:
	GEOIND_TRACE_SMOKE=1 $(GO) test -run TestTraceSmoke -v -timeout 300s ./cmd/geoind-server/

# Compare a fresh benchmark run against the committed baseline. Warn-only:
# regressions above 20% are flagged but never fail the target.
bench-diff:
	$(GO) test -run xxx -bench 'ReportBatch|ReportLoop|ServerBatchThroughput|ServerSingleReports' \
		-benchtime 300x -benchmem . ./internal/server/ | $(GO) run ./cmd/benchjson > /tmp/bench_current.json
	$(GO) run ./cmd/benchjson -diff -threshold 20 BENCH_batch.json /tmp/bench_current.json
	$(GO) test -run xxx -bench 'ColdStart|WarmRestart' \
		-benchtime 3x -benchmem . | $(GO) run ./cmd/benchjson > /tmp/bench_persist_current.json
	$(GO) run ./cmd/benchjson -diff -threshold 50 BENCH_persist.json /tmp/bench_persist_current.json
	$(GO) test -run xxx -bench 'CtxOverhead' -benchtime 2s -benchmem . \
		| $(GO) run ./cmd/benchjson > /tmp/bench_ctx_current.json
	$(GO) run ./cmd/benchjson -diff -threshold 20 BENCH_ctx.json /tmp/bench_ctx_current.json
	$(GO) test -run xxx -bench 'SamplerDraw|SampleViaReport|AliasBuild|SnapshotBytes' \
		-benchtime 1s -benchmem ./internal/opt | $(GO) run ./cmd/benchjson > /tmp/bench_sample_current.json
	$(GO) run ./cmd/benchjson -diff -threshold 30 BENCH_sample.json /tmp/bench_sample_current.json
	$(GO) test -run xxx -bench 'LocalVsDense|LocalPrecompute' \
		-benchtime 1x -benchmem ./internal/opt | $(GO) run ./cmd/benchjson > /tmp/bench_local_current.json
	$(GO) run ./cmd/benchjson -diff -threshold 50 BENCH_local.json /tmp/bench_local_current.json
	$(GO) run ./cmd/loadgen -self -duration 10s -workers 8 -self-budget 50 \
		-out /tmp/bench_load_current.json > /dev/null
	$(GO) run ./cmd/benchjson -diff -threshold 100 BENCH_load.json /tmp/bench_load_current.json
	$(GO) test -run xxx -bench 'FabricFleet|FabricIsolated' \
		-benchtime 3x -benchmem . | $(GO) run ./cmd/benchjson > /tmp/bench_fabric_current.json
	$(GO) run ./cmd/benchjson -diff -threshold 50 BENCH_fabric.json /tmp/bench_fabric_current.json
	{ $(GO) test -run xxx -bench 'TraceEndpoint|TracePredictiveSavings' \
		-benchtime 3x -benchmem . ; \
	  $(GO) test -run xxx -bench 'JournalAppend' -benchtime 2000x -benchmem ./internal/session ; } \
	  | $(GO) run ./cmd/benchjson > /tmp/bench_trace_current.json
	$(GO) run ./cmd/benchjson -diff -threshold 50 BENCH_trace.json /tmp/bench_trace_current.json
