# Convenience targets for the MoPAC reproduction (stdlib-only Go module).

GO ?= go

.PHONY: build test vet bench bench-all bench-check race fuzz experiments analyze examples clean serve fleet-demo

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmarks BENCH_baseline.json tracks: end-to-end simulator
# throughput (ns/op, simNs/op, events/op, bankVisits/op, allocs/op),
# one cold attack search (AttackSearch: searchSimNs/op, evals/op), the
# controller layer alone (ControllerReplay: cmds/op, bankVisits/op) and
# the event-engine hot paths. -benchtime=5x pins SimulatorThroughput,
# HammerThroughput and AttackSearch to seeds 1-5 so their simulated
# and counted metrics are exactly reproducible run to run; the other
# benchmarks use a fixed iteration count. mopac-bench keeps the median
# of the -count runs and the runs themselves: with five a side,
# bench-check prints a Mann-Whitney p-value beside each delta.
BENCH_RUN = ( $(GO) test -run='^$$' -bench='SimulatorThroughput|HammerThroughput|AttackSearch' \
		-benchmem -benchtime=5x -count=5 . && \
	$(GO) test -run='^$$' -bench='ControllerReplay' \
		-benchmem -benchtime=10x -count=5 ./internal/mc/ && \
	$(GO) test -run='^$$' -bench='ScheduleAndFire|Engine' \
		-benchmem -benchtime=2000000x -count=5 ./internal/event/ )

bench:
	$(BENCH_RUN) | $(GO) run ./cmd/mopac-bench -o BENCH_baseline.json
	@echo wrote BENCH_baseline.json

# Compare the current tree against the committed baseline: prints a
# per-metric delta table, leaves the fresh numbers in
# BENCH_current.json, and fails on >30% growth in any tracked metric.
bench-check:
	$(BENCH_RUN) | $(GO) run ./cmd/mopac-bench -against BENCH_baseline.json
	@echo wrote BENCH_current.json

# Every paper-reproduction benchmark (tables, figures, ablations).
bench-all:
	$(GO) test -bench=. -benchmem .

fuzz:
	$(GO) test -fuzz=FuzzReader -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz=FuzzLoad -fuzztime 30s ./internal/config/
	$(GO) test -fuzz=FuzzParseAttackSpec -fuzztime 30s ./internal/workload/

# Regenerates EXPERIMENTS-results.md at full scale. Cold: tens of
# minutes on one core (the planner dedupes shared configs and runs one
# saturated pool across all figures). Warm: near-instant — results
# persist in the content-addressed store (~/.cache/mopac; -store DIR to
# relocate, -no-store to disable), so re-runs and the second invocation
# below only simulate what the first did not.
experiments:
	$(GO) run ./cmd/mopac-experiments -instr 1000000 -acts 150000 -o EXPERIMENTS-results.md
	$(GO) run ./cmd/mopac-experiments -instr 1000000 -only overheads -o EXPERIMENTS-overheads.md

analyze:
	$(GO) run ./cmd/mopac-analyze

serve:
	$(GO) run ./cmd/mopac-serve

# A throwaway localhost fleet (1 coordinator + 2 workers) under herd
# load; Ctrl-C tears it down. CI runs the assertive version of this
# as the fleet-smoke job.
fleet-demo:
	$(GO) build -o /tmp/mopac-fleet-bin/ ./cmd/mopac-serve ./cmd/mopac-loadgen
	@/tmp/mopac-fleet-bin/mopac-serve -role coordinator -addr :8080 -store /tmp/mopac-fleet-store & C=$$!; \
	/tmp/mopac-fleet-bin/mopac-serve -role worker -addr :8091 -coordinator http://localhost:8080 & W1=$$!; \
	/tmp/mopac-fleet-bin/mopac-serve -role worker -addr :8092 -coordinator http://localhost:8080 & W2=$$!; \
	sleep 2; /tmp/mopac-fleet-bin/mopac-loadgen -target http://localhost:8080 -shape herd -duration 10s; \
	kill $$W1 $$W2; sleep 1; kill $$C 2>/dev/null || true

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/paramsearch
	$(GO) run ./examples/attack
	$(GO) run ./examples/masstree
	$(GO) run ./examples/tradeoffs

clean:
	$(GO) clean ./...
