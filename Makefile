PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-all test-faults test-chaos test-remote lint-tests bench-smoke bench-kernels bench-baseline bench-parallel-smoke bench-parallel-baseline bench-cold-smoke bench-cold-baseline bench-procs-smoke bench-procs-baseline

## Tier-1 test suite (the CI gate): fast deterministic tests only
## (pytest.ini's addopts deselect the tier2 marker by default)
test:
	$(PYTHON) -m pytest -x -q

## Both tiers: tier1 plus the hypothesis sweeps and paper-claim integration
## tests (the trailing -m overrides the addopts default)
test-all:
	$(PYTHON) -m pytest -q -m "tier1 or tier2"

## Robustness machinery under deterministic fault injection: the guards /
## recovery / dispatcher suites plus the seeded tier-2 hammer runs
test-faults:
	$(PYTHON) -m pytest -q -m "tier1 or tier2" tests/test_robustness.py tests/test_faults.py

## Overload + chaos: priority shedding, brownout, worker watchdog, and the
## hang/kill/corruption hammer against the process tier (tier-2 included)
test-chaos:
	$(PYTHON) -m pytest -q -m "tier1 or tier2" tests/test_overload.py tests/test_watchdog.py tests/test_faults.py
	REPRO_FAULTS="seed=11,rate=0,drop_rate=0.08,dup_rate=0.05,disconnect_rate=0.04,net_delay_ms=2" \
		$(PYTHON) -m pytest -q -m "tier1 or tier2" tests/test_remote.py -k env_plan

## Remote shard tier: frame codec, reconnect + replay, dedup, hedging,
## failover, and the tier-2 two-replica partition-chaos hammer
test-remote:
	$(PYTHON) -m pytest -q -m "tier1 or tier2" tests/test_remote.py

## Fail if any test file lacks a tier1/tier2 marker
lint-tests:
	$(PYTHON) tools/lint_tests.py

## Kernel + batched micro-benchmarks at smoke scale (<60 s); fails on >2x
## speedup regression against the committed baseline JSON
bench-smoke:
	$(PYTHON) benchmarks/bench_kernels.py --scale smoke --check

## Kernel micro-benchmarks at medium scale with the issues' floors: >=3x on
## ELL-SpMV / FGMRES-cycle (kernel engine), >=3x on solve_batch (batching),
## >=1x matrix-free-over-assembled stencil applies at 64^3 (operators), and
## >=1x on every fused solve-plan kernel vs its unfused sequence (plans)
bench-kernels:
	$(PYTHON) benchmarks/bench_kernels.py --scale medium --require 3.0 --require-batched 3.0 --require-stencil 1.0 --require-fused 1.0

## Refresh the committed smoke baseline (run on a quiet machine)
bench-baseline:
	$(PYTHON) benchmarks/bench_kernels.py --scale smoke --write-baseline

## Thread-sweep solve benchmark at smoke scale: REPRO_THREADS {1,2,4,cores},
## bit-identity enforced, fails on >2x best-speedup regression vs the
## committed (machine-dependent) baseline JSON
bench-parallel-smoke:
	$(PYTHON) benchmarks/bench_solves.py --scale smoke --check

## Refresh the committed thread-sweep baseline (run on the target machine)
bench-parallel-baseline:
	$(PYTHON) benchmarks/bench_solves.py --scale smoke --write-baseline

## Cold-start setup benchmark at smoke scale: per-stage cold vs warm-artifact
## timing, bit-identity gated; enforces the >=2x warm-cache acceptance floor
## and fails on a >2x regression vs the committed baseline
bench-cold-smoke:
	$(PYTHON) benchmarks/bench_cold_start.py --check --require-warm-speedup 2.0

## Regenerate the committed cold-start baseline (machine-dependent)
bench-cold-baseline:
	$(PYTHON) benchmarks/bench_cold_start.py --write-baseline

## Process-tier benchmark at smoke scale: gateway throughput across
## REPRO_PROCS, zero-copy shm accounting, warm-worker artifact hits;
## bit-identity gated.  On a 1-core box the multi-process entries measure
## spawn/queue overhead, so only the procs=1 throughput is floored.
bench-procs-smoke:
	$(PYTHON) benchmarks/bench_procs.py --check

## Regenerate the committed process-tier baseline (machine-dependent)
bench-procs-baseline:
	$(PYTHON) benchmarks/bench_procs.py --write-baseline
