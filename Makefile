GO ?= go

.PHONY: check vet build test race smoke serve-smoke loadtest crash-smoke crash-soak fuzz-smoke profile-smoke layout-smoke engine-diff determinism concurrency soak-short soak bench bench-exec bench-batch bench-record clean

# check is the tier-1 gate (see ROADMAP.md): static analysis, a full
# build, the race-enabled test suite, the race-enabled concurrency
# tests (driver cache, batch executor, cancellation), machine-readable
# benchmark smoke runs (serial and batch mode), a short fuzz of the
# front end, the fault-plane determinism tests, a short fault-invariance
# soak through the differential oracle, an end-to-end smoke of the
# source-line cycle profiler's three artifact formats, the !HPF$
# distribution-plane layout sweep (oracle-verified, deterministic, and
# the layout choice must matter), the PEAC engine differential (every
# workload kernel on both machine shapes, engine vs the reference
# interpreter kept in the tests), the f90yd server lifecycle smoke (start,
# load, overload, SIGTERM drain), and the durability-plane crash smoke
# (SIGKILL mid-load, relaunch, bit-identical recovery).
check: vet build race concurrency smoke fuzz-smoke determinism soak-short profile-smoke layout-smoke engine-diff serve-smoke crash-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Full suite, including the paper-scale §6 reproduction (~1 min).
test:
	$(GO) test ./...

# Race-enabled suite; -short skips the paper-scale run.
race:
	$(GO) test -race -short ./...

# Race-enabled concurrency gate: shared-artifact determinism, compile
# cache singleflight, LRU byte-bound eviction racing Peek/hot hits and
# in-flight pins (plus the error-entry flood), batch serial/parallel
# identity, cancellation, the
# sharded-executor determinism test (bit-exact stores, cycles, and
# fault/numeric tallies across -exec-workers values, with fault
# injection and the numeric record plane active), the PEAC engine
# differential tests (every TestExec* executor test — chunk boundaries,
# chained-Mem positions, error taxonomy, trap and record-plane parity
# and failure-path merge, pool cancellation — plus the whole-program
# differential, all engine vs the reference interpreter across worker
# counts), and the pool telemetry
# test (workers recording into one shared collector while the modeled
# counters and per-line cycle attribution stay bit-identical to a
# serial run).
concurrency:
	$(GO) test -race -run 'Concurrent|^TestExec|EngineDifferential' ./...

# Smoke-test the f90y-bench/v1 JSON writer end to end, serial and with
# the parallel batch pool.
smoke:
	$(GO) run ./cmd/swebench -json -n 128 -steps 2 -o .bench-smoke.json
	$(GO) run ./cmd/swebench -json -parallel 4 -n 128 -steps 2 -o .bench-smoke.json
	rm -f .bench-smoke.json

# End-to-end server lifecycle smoke: build f90yd, start it on a random
# port, fire the swebench -serve-url traffic mix (healthy, verified,
# fault-injected, budget-killer, oversize), assert only documented
# statuses come back, SIGTERM, and assert a clean drain (exit 0 with a
# draining stats snapshot).
serve-smoke:
	REQS=48 LOADW=8 OUT=.load-smoke.json ./scripts/serve_smoke.sh
	rm -f .load-smoke.json

# Durability-plane crash smoke: the swebench -restart harness SIGKILLs
# a -state-dir f90yd mid-load and relaunches it, clean and under
# torn/short durable-write injection. Fails on any silent job loss,
# any result diverging from its uninterrupted baseline, or a run where
# the kills never actually interrupted anything (vacuity check).
crash-smoke:
	KILLS=3 OUT=.crash-smoke.json ./scripts/crash_smoke.sh
	rm -f .crash-smoke.json

# Crash soak: 20 SIGKILL/relaunch cycles per phase (clean + fault
# injected), recording the f90y-crash/v1 evidence quoted in
# EXPERIMENTS.md L2.
crash-soak:
	KILLS=20 OUT=CRASH_soak.json ./scripts/crash_smoke.sh

# Bigger load run against a fresh server, recording the f90y-load/v1
# baseline (healthy p50/p99, per-class status counts) quoted in
# EXPERIMENTS.md L1. 32 clients against 4 workers + a depth-8 queue
# drives the admission queue into overflow on purpose.
loadtest:
	REQS=256 LOADW=32 OUT=LOAD_baseline.json ./scripts/serve_smoke.sh

# Short fuzz of the parser, the whole compile pipeline, the
# differential oracle, and the PEAC engine against its reference
# interpreter (~30s). The native fuzzer also replays the regression
# corpus in testdata/fuzz/. FuzzOracle and FuzzEngines get short
# budgets: every successfully-compiling input runs whole programs, so
# their throughput is execution-bound, not parse-bound.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzOracle$$' -fuzztime 4s .
	$(GO) test -run '^$$' -fuzz '^FuzzEngines$$' -fuzztime 1s ./internal/cm2/

# End-to-end smoke of the source-line cycle profiler: one run emits the
# annotated listing, the pprof protobuf, and the folded stacks; the
# pprof file must parse with the stock toolchain and the folded file
# must be non-empty.
profile-smoke:
	$(GO) run ./cmd/f90yrun -profile -profile-pprof .profile-smoke.pb.gz \
		-profile-folded .profile-smoke.folded examples/swe.f90 > /dev/null
	$(GO) tool pprof -top .profile-smoke.pb.gz > /dev/null
	test -s .profile-smoke.folded
	rm -f .profile-smoke.pb.gz .profile-smoke.folded

# Distribution-plane smoke: the swebench layout sweep with every
# kernel/layout pair oracle-verified, record determinism across runs,
# at least one kernel whose best layout is not all-BLOCK, and a >= 2x
# worst/best cycle spread (see EXPERIMENTS.md E2').
layout-smoke:
	./scripts/layout_smoke.sh

# Fault-plane invariants: zero overhead with no plan attached, and
# bit-identical replay of the same seed.
determinism:
	$(GO) test -run 'ZeroOverhead|Determinism|Resume' ./internal/cm2/ ./internal/cm5/

# Short fault-invariance soak: the oracle package's soak tests under
# the race detector (2 programs x 2 backends x 2 seeds x 4 plans).
soak-short:
	$(GO) test -race -run 'Soak|Verify' ./internal/oracle/

# Full chaos soak: verify all seven kernels across interp/cm2/cm5,
# then sweep 25 seeds x 4 fault plans x 2 backends (1400 faulted runs)
# asserting bit-exact fault invariance. Reproducers for any violation
# land in soak-repros/.
soak:
	$(GO) run ./cmd/swebench -soak 25 -parallel -1

bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./...

# PEAC engine differential: every internal/workload kernel (SWE,
# Fig. 9-12, Stencil, SpillKernel, the layout trio under BLOCK, CYCLIC
# and aligned !HPF$ layouts) on the CM/2 and CM-5 shapes at executor
# worker counts 0, 2 and GOMAXPROCS, run through the machine harness
# and through hostvm with the reference interpreter dispatching; stores,
# output, numeric tallies and host/comm cycles must match exactly.
engine-diff:
	$(GO) test -run 'EngineDifferential' -count=1 ./internal/cm2/

# Sharded-executor scaling: SWE wall-clock across -exec-workers 1/2/4/8
# (modeled metrics are identical across all four by construction; see
# EXPERIMENTS.md).
bench-exec:
	$(GO) test -bench 'SWE_ExecWorkers' -benchmem -run '^$$' .

# Time the full experiment suite serial vs parallel and write the
# f90y-batch/v1 comparison record.
bench-batch:
	$(GO) run ./cmd/swebench -bench-batch -o BENCH_batch.json

# Refresh the committed baseline record — the f90y-bench/v1 JSON for
# the paper-scale SWE run (with its profile summary) — then run the
# sharded-executor scaling benchmark for the wall-clock numbers quoted
# in EXPERIMENTS.md. (BENCH_jit.json is the historical record of the
# engine switch and is no longer regenerated.)
bench-record:
	$(GO) run ./cmd/swebench -json -n 512 -steps 2 -o BENCH_baseline.json
	$(GO) test -bench 'SWE_ExecWorkers' -benchmem -run '^$$' .

# clean removes generated benchmark outputs but keeps the committed
# BENCH_baseline.json (refresh it with bench-record).
clean:
	rm -f BENCH_swe_*.json BENCH_batch.json .bench-smoke.json .profile-smoke.pb.gz .profile-smoke.folded .load-smoke.json LOAD_swe.json .crash-smoke.json CRASH_swe.json
