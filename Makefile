GO ?= go

.PHONY: check fmt-check doclint build vet test race fuzz-smoke race-timing race-durability bench-smoke bench-writehot bench-warm bench-spans bench-serve bench-backend fidelity fidelity-report fidelity-reverdict

# check is the pre-merge gate: static checks, full tests under the race
# detector, a short fuzz of the ledger decoders, and a short smoke of the
# steady-state write benchmark so a regression that reintroduces hot-path
# allocations fails fast.
check: fmt-check doclint vet build test race fuzz-smoke bench-smoke

# fmt-check fails (listing the offenders) when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# doclint is the exported-comment lint (ci/doclint): every exported
# top-level declaration in the repository needs a godoc comment.
doclint:
	$(GO) run ./ci/doclint ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke fuzzes the regression ledger's decoders (ledger JSONL,
# -metrics snapshots, BENCH records, `go test -bench` text) for 10 s,
# seeded from the committed ledgers and BENCH files: every input must
# decode or return an error, never panic. Minimization is capped so the
# budget goes to new inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLedgerRead -fuzztime 10s -fuzzminimizetime 200x ./internal/regress/

# race-timing is the focused race pass for the deterministic-parallelism
# machinery: the timing model in internal/timing, the parallel grid /
# shared warm-stream / planner paths in internal/exp, the generator fork
# in internal/workload, the concurrent telemetry (the striped obs
# registry's 64-goroutine hammer, the lock-free histograms with their
# merge property test, and the serving harness), and the sharded serving
# front end's differential replay suite (internal/servefront), all under
# the race detector. A subset of `race`, split out so CI can run it on
# every push even when the full race matrix is pruned.
race-timing:
	$(GO) test -race ./internal/timing/
	$(GO) test -race -run 'TestPerfGrid|TestWarm|TestPlan' ./internal/exp/
	$(GO) test -race -run 'TestFork' ./internal/workload/
	$(GO) test -race ./internal/obs/ ./internal/servebench/ ./internal/servefront/

# race-durability is the focused race pass for the persistence layer: the
# backend implementations and their failure-path tests, the pcmdev /
# ctrstore page mapping, the durable snapshot framing, and the restart
# differential suite (every scheme replayed on mem vs file vs dir vs a
# mid-trace close/reopen — all four must be bit-identical). A subset of
# `race`, split out so the CI durability job can run it on every push.
race-durability:
	$(GO) test -race ./internal/backend/
	$(GO) test -race -run 'TestBackend' ./internal/pcmdev/ ./internal/ctrstore/
	$(GO) test -race -run 'TestPowerCycle|TestLoadState|TestPersistence|TestINVMMSnapshot' ./internal/core/
	$(GO) test -race -run 'TestRestartDifferential|TestBackend|TestWriteFileAtomic|TestRestoreNamesSchemeMismatch' .

# bench-smoke only checks that the hot-write benchmarks still run and stay
# allocation-free; 100 iterations is too few for timing, use bench-writehot
# for numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkWriteHot -benchtime 100x .

# bench-writehot regenerates the numbers behind BENCH_writehot.json.
bench-writehot:
	$(GO) test -run '^$$' -bench BenchmarkWriteHot -benchmem .

# bench-warm regenerates BENCH_warm.json: the full fidelity gate's wall
# clock at CI scale in its three execution modes — cold (warm-state reuse
# off, the pre-reuse baseline), with warm-state reuse and the planner, and
# as an incremental recheck against the run's own recording (zero
# experiment re-runs). Also cross-checks that all three modes verdict
# identically.
bench-warm:
	$(GO) run ./ci/benchwarm -writebacks 6000 -lines 512 -out BENCH_warm.json

# bench-spans regenerates BENCH_spans.json: the fidelity gate's wall clock
# with span tracing off vs on (min of two runs per leg), pinning the
# tracer's <2% overhead target. Also cross-checks that the traced and
# untraced gates verdict identically.
bench-spans:
	$(GO) run ./ci/benchspans -writebacks 6000 -lines 512 -out BENCH_spans.json

# bench-serve regenerates BENCH_serve.json: the concurrent serving
# harness (N clients, Zipfian mixed read/write workload against the KV
# store) once per scheme × front end — the coarse single-lock baseline
# and the sharded single-writer-line front — recording throughput and
# p50/p90/p99/p999 latency from the lock-free striped histograms. The
# record is validated (complete, mixed, no misses, monotone quantiles)
# before it is written; `deucereport record -serve` ingests it into the
# perf ledger.
bench-serve:
	$(GO) run ./ci/benchserve -clients 8 -ops 60000 -lines 4096 -fronts coarse,sharded -shards 8 -out BENCH_serve.json

# bench-backend regenerates BENCH_backend.json: the steady-state write
# path once per storage backend (mem, mmap file, the pread/pwrite
# fallback, sharded dir, and file with a Sync every 64 writes), after
# verifying all of them bit-identical on a fixed differential trace.
# `deucereport record -bench` ingests the record into the perf ledger.
bench-backend:
	$(GO) run ./ci/benchbackend -out BENCH_backend.json

# fidelity runs the paper-fidelity gate at the reduced CI scale: every
# EXPERIMENTS.md headline value is checked against the paper with
# calibrated tolerances; exits non-zero on any violation.
fidelity:
	$(GO) run ./cmd/deucereport check -experiment all -writebacks 6000 -lines 512

# fidelity-report additionally writes the fidelity matrix as a markdown
# artifact (CI uploads fidelity-report.md) and records every experiment
# table as typed-cell JSON under fidelity-tables/, so the run doubles as
# a recording that fidelity-reverdict (or `deucereport check -from`) can
# re-verdict without re-running anything.
fidelity-report:
	$(GO) run ./cmd/deucereport check -experiment all -writebacks 6000 -lines 512 -out fidelity-report.md -outdir fidelity-tables

# fidelity-reverdict re-verdicts the recorded tables of the last
# fidelity-report run with zero experiment runs — free after a tolerance
# edit in internal/fidelity.
fidelity-reverdict:
	$(GO) run ./cmd/deucereport check -from fidelity-tables
