# Tier-1 verification and CI entry points (see ROADMAP.md).

.PHONY: verify build test race fault fuzz bench-engine bench-check paperbench-determinism paperbench-golden profile

# verify is the tier-1 gate: build + full test suite.
verify: build test

build:
	go build ./...

test:
	go test ./...

# race runs the race detector over the concurrent experiment runner and
# the engine it parallelizes; required for any change to either. The
# bench run is scoped to the runner's concurrency tests (the figure-
# shape tests exercise single-threaded model code and are ~20x slower
# under race, blowing the go test timeout).
race:
	go test -race -timeout 20m -run 'Runner|Parallel|Prefetch|Progress|CfgKey|Store' ./internal/bench/...
	go test -race -timeout 20m ./internal/sim/...
	go test -race -timeout 20m ./internal/resultstore/

# fault runs the fault-injection suite and the CLI exit-code contracts
# under the race detector: injected deadlocks, watchdog-aborted stalls,
# panics, flaky retries and corrupted configs must all surface as typed
# job records while every engine stops its task coroutines cleanly. The
# disk-fault wrappers (torn writes, bit flips, short reads, ENOSPC
# against the result store) and the SIGKILL crash-recovery re-exec test
# live in the same packages and run here too.
fault:
	go test -race -timeout 20m ./internal/fault/ ./internal/resultstore/ ./cmd/memsim/ ./cmd/paperbench/

# fuzz replays random tracer op sequences (nested and detached
# transactions, cap overflows, reservoir churn, sampling past the
# retention cap) against the exported trees' invariants and the
# recycling bookkeeping, then feeds arbitrary bytes to the result
# store's recovery scan as a journal (Open never fails on content, hits
# are only reports that were put, the scan accounts for every byte).
# Interesting store inputs are kilobytes long, so their minimization is
# capped to keep the 20 s mostly fuzzing. The seed corpora also run in
# every go test.
fuzz:
	go test -run '^$$' -fuzz '^FuzzTracerOps$$' -fuzztime 20s ./internal/txntrace/
	go test -run '^$$' -fuzz '^FuzzStoreOpen$$' -fuzztime 20s -fuzzminimizetime 2s ./internal/resultstore/

# bench-engine regenerates the event-engine numbers tracked in
# BENCH_engine.json (Sync fast path, scheduler dispatch and its channel
# switch control, server calendar, the cycle-ledger charge path, the
# histogram record path, the transaction tracer disabled, armed and
# latency-only, plus the end-to-end runner grid).
bench-engine:
	go test -bench 'BenchmarkSyncFastPath|BenchmarkDispatch|BenchmarkChanSwitchFloor|BenchmarkServerAcquire|BenchmarkFlightRecorder' -run xxx ./internal/sim/
	go test -bench BenchmarkLedger -run xxx ./internal/cpu/
	go test -bench BenchmarkHistogramRecord -run xxx ./internal/stats/
	go test -bench BenchmarkTxnTrace -run xxx ./internal/txntrace/
	go test -bench BenchmarkRunner -run xxx -benchtime 3x ./internal/bench/

# bench-check fails if an engine microbenchmark regresses more than 25%
# against its 'after' value in BENCH_engine.json, or breaks its paired
# bound (at most 'max_ratio' times a 'control' benchmark of this same
# run; all the commands below feed one check). After an intentional
# engine change, regenerate the record with bench-engine and update the
# file.
bench-check:
	go test -bench 'BenchmarkSyncFastPath|BenchmarkDispatch|BenchmarkChanSwitchFloor|BenchmarkServerAcquire|BenchmarkFlightRecorder' -run xxx ./internal/sim/ > /tmp/bench-engine-check.txt
	go test -bench BenchmarkLedger -run xxx ./internal/cpu/ >> /tmp/bench-engine-check.txt
	go test -bench BenchmarkHistogramRecord -run xxx ./internal/stats/ >> /tmp/bench-engine-check.txt
	go test -bench BenchmarkTxnTrace -run xxx ./internal/txntrace/ >> /tmp/bench-engine-check.txt
	go test -bench BenchmarkRunner -run xxx -benchtime 3x ./internal/bench/ >> /tmp/bench-engine-check.txt
	go run ./cmd/benchcheck -baseline BENCH_engine.json -max-regress 25 < /tmp/bench-engine-check.txt

# profile runs a small single-figure campaign under the CPU and blocking
# profilers and leaves cpu.pprof/block.pprof in /tmp for `go tool pprof`.
# The blocking profile is the one that matters for dispatch work: time
# parked in channel operations is invisible to the CPU profile. See
# EXPERIMENTS.md ("Profiling the engine") for how to read the output.
profile:
	go run ./cmd/paperbench -only fig2 -apps fir -scale small -q \
		-cpuprofile /tmp/paperbench-cpu.pprof -blockprofile /tmp/paperbench-block.pprof
	@echo "profiles written: /tmp/paperbench-cpu.pprof /tmp/paperbench-block.pprof"
	@echo "inspect with: go tool pprof -top /tmp/paperbench-cpu.pprof"

# paperbench-determinism is the end-to-end check that figure output is
# byte-identical at any -j (the sweep is embarrassingly parallel).
paperbench-determinism:
	go run ./cmd/paperbench -only fig2 -scale small -q -j 1 > /tmp/pb-j1.txt
	go run ./cmd/paperbench -only fig2 -scale small -q -j 8 > /tmp/pb-j8.txt
	cmp /tmp/pb-j1.txt /tmp/pb-j8.txt && echo "fig2 output identical at -j 1 and -j 8"

# paperbench-golden is the end-to-end check that the full default-scale
# campaign still prints paperbench_default.txt byte for byte (a few
# minutes at -j 1 on a small host).
paperbench-golden:
	go run ./cmd/paperbench -scale default -q | cmp - paperbench_default.txt
