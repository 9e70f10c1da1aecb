.PHONY: all build test test-par test-crash test-kernel test-compact \
	test-serve serve-smoke serve-session-smoke runs-smoke bench bench-json \
	bench-baseline bench-check bench-full check-oracle ci fmt fmt-check clean

all: build

build:
	dune build

test:
	dune runtest

# Everything CI gates on: the build, the test suite, the parallel-
# determinism gate (the suite again at 1 and 4 domains), dune-file
# formatting, the bench regression check against the committed baseline,
# the oracle differential suite, the kernel differential battery, the
# crash-equivalence matrix, and the live-endpoint and run-store smoke
# tests.
ci: build test test-par fmt-check bench-check check-oracle test-kernel \
	test-compact test-crash test-serve serve-smoke serve-session-smoke \
	runs-smoke

# Crash-equivalence matrix: kill a checkpointed campaign at every trial
# boundary (at --jobs 1 and 4), resume it, and require bit-identical
# results; same for a snapshotted single walk, plus corrupted-snapshot
# rejection.  Every kill-point must also leave a flight-recorder dump that
# verify-trace --flight accepts.  See test/crash_matrix.sh.
test-crash: build
	bash test/crash_matrix.sh

# eprocd session-service conformance battery: protocol validation unit
# tests, router-level malformed-request rejection (structured 4xx, never a
# crash), qcheck fuzz over request shapes and raw request bytes, the
# session-lifecycle equivalence property (any step/stream/hibernate/
# rehydrate interleaving is bit-identical to an uninterrupted run),
# restart recovery, and concurrent-client determinism over loopback HTTP
# at pool sizes 1 and 4.  See test/test_serve.ml.
test-serve: build
	dune exec test/test_serve.exe

# End-to-end eprocd lifecycle smoke: create / step / hibernate under a
# tiny resident cap / rehydrate over real loopback HTTP, recorded trace
# streams accepted by `eproc verify-trace`, a valid /metrics exposition,
# and the 1000-session `eproc load-test` driven against the live daemon
# with the cap forcing hibernation churn.  See test/serve_session_smoke.sh.
serve-session-smoke: build
	bash test/serve_session_smoke.sh

# Live-endpoint smoke: start a cover run with --listen 0, scrape /healthz,
# /progress, and /metrics mid-run (the exposition must pass
# `eproc openmetrics-validate`), then require a clean shutdown via /quit.
# See test/serve_smoke.sh.
serve-smoke: build
	bash test/serve_smoke.sh

# Run-store smoke: mint runs with pinned epochs (deterministic ids), build
# a checkpoint/resume chain, record throughput series, and exercise
# `eproc runs list/show/compare` end to end.  See test/runs_smoke.sh.
runs-smoke: build
	bash test/runs_smoke.sh

# Run every production walk against the naive reference oracles over the
# stock graph/seed/mode matrix, serially and with 4 domains (the report is
# bit-identical by the pool's determinism contract).
check-oracle:
	EWALK_JOBS=1 dune exec bin/eproc.exe -- check-oracle
	EWALK_JOBS=4 dune exec bin/eproc.exe -- check-oracle

# The walk-engine gate: the full differential battery (every engine
# process with a naive oracle x cooperating/competing x W in {1,4,17} x
# 3 seeds) plus the rest of the kernel suite, serially and with 4
# domains.  EWALK_KERNEL_FULL widens test_kernel's default
# quick matrix to the full one.
test-kernel: build
	EWALK_KERNEL_FULL=1 EWALK_JOBS=1 dune exec test/test_kernel.exe
	EWALK_KERNEL_FULL=1 EWALK_JOBS=4 dune exec test/test_kernel.exe
	EWALK_JOBS=1 dune exec bin/eproc.exe -- check-oracle --kernel
	EWALK_JOBS=4 dune exec bin/eproc.exe -- check-oracle --kernel

# The compact-data-plane gate: packed bitsets and the slot-ordered arc
# marks vs boolean reference models (qcheck, with shrinking), the marks =
# coverage invariant after every step of the E-process rules and of
# cooperating engines, and the kernel's visited edges vs the naive oracle
# per configuration and across job counts — serially and with 4 domains.
test-compact: build
	EWALK_JOBS=1 dune exec test/test_compact.exe
	EWALK_JOBS=4 dune exec test/test_compact.exe

# The parallel-determinism gate: the whole suite must pass with the pool
# disabled and with 4 domains (results are bit-identical by contract).
test-par:
	EWALK_JOBS=1 dune runtest --force
	EWALK_JOBS=4 dune runtest --force

bench:
	dune exec bench/main.exe

# Regenerate BENCH_core.json (micro-bench median/MAD/min, obs overhead,
# experiment timings, and the jobs=1 vs jobs=4 parallel speedup +
# bit-identity check) at tiny scale. Override the output path with
# EWALK_BENCH_JSON and the domain count with --jobs / EWALK_JOBS.
bench-json:
	EWALK_BENCH_SCALE=tiny dune exec bench/main.exe -- --jobs 4

# Micro-bench-only environment for the regression gate: tiny scale, no
# experiment tables, no parallel section — just the kernel distributions
# the ledger compares.
BENCH_CHECK_ENV := EWALK_BENCH_SCALE=tiny EWALK_BENCH_SKIP_EXPERIMENTS=1 \
	EWALK_BENCH_SKIP_PARALLEL=1

# Refresh the committed baseline the regression gate compares against.
# Run this (and commit BENCH_baseline.json) after an intentional perf
# change; the run is not appended to the history ledger.
bench-baseline:
	$(BENCH_CHECK_ENV) EWALK_BENCH_JSON=BENCH_baseline.json \
	  EWALK_BENCH_HISTORY=/dev/null dune exec bench/main.exe -- --jobs 1

# Full-scale throughput run: EWALK_BENCH_SCALE=full adds the n=10^6
# stepping kernels (headline:steps_per_second_eprocess_full) and the
# n=10^7 vertex-cover smoke — both skipped below 4 GiB RAM — and the run
# is appended, with its minted run id, to BENCH_history.jsonl.  The
# experiment tables and parallel section are skipped here; `make bench`
# covers those.
bench-full: build
	EWALK_BENCH_SCALE=full EWALK_BENCH_SKIP_EXPERIMENTS=1 \
	  EWALK_BENCH_SKIP_PARALLEL=1 dune exec bench/main.exe -- --jobs 1

# The perf regression gate: measure the current tree's kernels and diff
# them against the committed baseline with MAD-scaled tolerance.  Exits
# non-zero iff a kernel median regressed beyond tolerance.  The relative
# floor is raised from bench-diff's 25% default to 50%: shared CI runners
# swing kernel medians by ~40% run to run from co-tenant load, and a gate
# that cries wolf on scheduler noise trains people to ignore it.  Real
# regressions past 1.5x still trip it.
bench-check:
	$(BENCH_CHECK_ENV) EWALK_BENCH_JSON=_build/bench-check.json \
	  EWALK_BENCH_HISTORY=/dev/null dune exec bench/main.exe -- --jobs 1
	dune exec bin/eproc.exe -- bench-diff --min-rel-pct 50 \
	  BENCH_baseline.json _build/bench-check.json

# The container has no ocamlformat, so `dune build @fmt` cannot check .ml
# sources; format/check the dune files directly instead.
DUNE_FILES := dune-project $(shell git ls-files '*/dune')

fmt:
	@for f in $(DUNE_FILES); do \
	  dune format-dune-file $$f > $$f.fmt && mv $$f.fmt $$f; \
	done

fmt-check:
	@fail=0; for f in $(DUNE_FILES); do \
	  dune format-dune-file $$f | cmp -s - $$f || { echo "not formatted: $$f"; fail=1; }; \
	done; exit $$fail

clean:
	dune clean
