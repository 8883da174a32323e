"""Fault-injection subsystem: determinism, activation, and the seeded hammer.

Tier 1 pins the :mod:`repro.faults` contract — a :class:`FaultPlan` is a pure
function of ``(seed, site, call-count)``, activation is explicit and fully
reversible, and the idle path costs one global read.  The tier-2 hammer is
the PR's acceptance run: a 50-request mixed-precision dispatcher workload
under kernel corruption, worker failures, and injected latency must complete
every request, with the recovery machinery visible in the stats.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core import F3RConfig, F3RSolver
from repro.faults import (
    _KERNEL_SITES,
    FaultPlan,
    InjectedFault,
    active_plan,
    inject,
    install_from_env,
    install_plan,
    maybe_delay,
    maybe_fail_worker,
)
from repro.matgen import hpcg_matrix, poisson2d
from repro.plans import plan_for
from repro.precision import Precision
from repro.serve import BatchDispatcher
from repro.sparse import diagonal_scaling

pytestmark = pytest.mark.tier1


class TestPlanDeterminism:
    def _fire_sequence(self, plan, site, n=200):
        return [plan.fires(site) for _ in range(n)]

    def test_same_seed_same_schedule(self):
        a = FaultPlan(seed=42, rate=0.1, sites=("spmv",), kinds=("nan", "inf"))
        b = FaultPlan(seed=42, rate=0.1, sites=("spmv",), kinds=("nan", "inf"))
        assert self._fire_sequence(a, "spmv") == self._fire_sequence(b, "spmv")
        assert [r.summary() for r in a.records] == [r.summary() for r in b.records]

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, rate=0.1, sites=("spmv",))
        b = FaultPlan(seed=2, rate=0.1, sites=("spmv",))
        assert self._fire_sequence(a, "spmv") != self._fire_sequence(b, "spmv")

    def test_sites_independent(self):
        # the schedule at one site does not depend on traffic at another
        lone = FaultPlan(seed=7, rate=0.1, sites=("spmv", "trsv"))
        mixed = FaultPlan(seed=7, rate=0.1, sites=("spmv", "trsv"))
        expected = self._fire_sequence(lone, "spmv", 50)
        got = []
        for _ in range(50):
            mixed.fires("trsv")
            got.append(mixed.fires("spmv"))
        assert got == expected

    def test_disabled_site_never_fires(self):
        plan = FaultPlan(seed=0, rate=1.0, sites=("trsv",))
        assert self._fire_sequence(plan, "spmv", 50) == [None] * 50
        assert not plan.records

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(seed=0, rate=0.0, sites=("spmv",))
        assert self._fire_sequence(plan, "spmv", 50) == [None] * 50

    def test_max_faults_caps_corruption(self):
        plan = FaultPlan(seed=0, rate=1.0, sites=("spmv",), max_faults=3)
        self._fire_sequence(plan, "spmv", 50)
        assert len(plan.records) == 3

    def test_kinds_restricted(self):
        plan = FaultPlan(seed=3, rate=1.0, sites=("spmv",), kinds=("inf",))
        kinds = {k for k in self._fire_sequence(plan, "spmv", 20) if k}
        assert kinds == {"inf"}

    def test_corrupt_poisons_one_entry(self):
        plan = FaultPlan(seed=0)
        out = np.zeros(64)
        plan.corrupt(out, "spmv", "nan")
        assert np.isnan(out).sum() == 1
        out2 = np.zeros((8, 8))
        plan.corrupt(out2, "spmv", "inf")
        assert np.isinf(out2).sum() == 1

    def test_summary_counts_by_site(self):
        plan = FaultPlan(seed=0, rate=1.0, sites=("spmv", "trsv"))
        for _ in range(5):
            plan.fires("spmv")
            plan.fires("trsv")
        summary = plan.summary()
        assert summary["seed"] == 0
        assert summary["faults"] == sum(summary["by_site"].values())


class TestActivation:
    def test_inject_installs_and_restores(self):
        assert active_plan() is None
        plan = FaultPlan(seed=1)
        with inject(plan) as installed:
            assert installed is plan
            assert active_plan() is plan
        assert active_plan() is None

    def test_inject_wraps_backend(self):
        raw = get_backend("reference")
        with inject(FaultPlan(seed=1)):
            wrapped = get_backend("reference")
            assert type(wrapped).__name__ == "FaultyBackend"
            assert wrapped._inner is raw
        assert get_backend("reference") is raw

    def test_stale_proxy_is_inert_after_session(self):
        # a proxy captured during the session (e.g. inside a compiled plan)
        # must pass through untouched once the plan is uninstalled
        with inject(FaultPlan(seed=1, rate=1.0, sites=("spmv",))):
            proxy = get_backend("reference")
        A = poisson2d(4)
        x = np.ones(A.nrows)
        ref = get_backend("reference").spmv_csr(A.values, A.indices, A.indptr, x)
        out = proxy.spmv_csr(A.values, A.indices, A.indptr, x)
        np.testing.assert_array_equal(out, ref)

    def test_install_plan_returns_previous(self):
        first = FaultPlan(seed=1)
        second = FaultPlan(seed=2)
        try:
            assert install_plan(first) is None
            assert install_plan(second) is first
        finally:
            install_plan(None)
        assert active_plan() is None

    def test_worker_helpers_noop_when_idle(self):
        maybe_fail_worker()     # must not raise
        maybe_delay()           # must not sleep

    def test_maybe_fail_worker_raises_typed(self):
        plan = FaultPlan(seed=0, worker_rate=1.0)
        with inject(plan):
            with pytest.raises(InjectedFault) as excinfo:
                maybe_fail_worker("unit.worker")
        assert excinfo.value.site == "unit.worker"
        assert excinfo.value.call == 0
        assert plan.records[-1].kind == "worker"

    def test_maybe_delay_sleeps(self):
        plan = FaultPlan(seed=0, latency=0.05, latency_rate=1.0)
        with inject(plan):
            start = time.perf_counter()
            maybe_delay("unit.latency")
            assert time.perf_counter() - start >= 0.04


class TestPlannedSolveFaultReach:
    def test_prewarmed_plans_route_through_fault_plan(self, monkeypatch):
        A = poisson2d(40)
        b = np.random.default_rng(0).uniform(-1, 1, A.nrows)
        solver = F3RSolver(A, config=F3RConfig(variant="fp16"), nblocks=4)
        twin = F3RSolver(A, config=F3RConfig(variant="fp16"), nblocks=4)
        solver.solve(b)     # every level compiles its plans on the bare engine
        twin.solve(b)

        inner = get_backend()
        made = {"spmv": 0, "trsv": 0}
        # a kernel's own calls of other kernels (an unfused spmv_axpy runs
        # spmv_csr) are the engine's, not the solver's: count the outermost
        depth = [0]
        for name, site in _KERNEL_SITES.items():
            def counted(*args, _kernel=getattr(inner, name), _site=site,
                        **kwargs):
                made[_site] += depth[0] == 0
                depth[0] += 1
                try:
                    return _kernel(*args, **kwargs)
                finally:
                    depth[0] -= 1
            # in the instance's dict, so undoing it deletes the entry (a
            # restored attribute would leave a bound method shadowing the class)
            monkeypatch.setitem(vars(inner), name, counted)

        # max_faults=0: the plan counts every site call and corrupts none
        plan = FaultPlan(seed=0, rate=1.0, sites=("spmv", "trsv"),
                         max_faults=0)
        with inject(plan):
            proxy = get_backend()
            faulted = solver.solve(b)
        seen = dict(plan._counts)
        assert made["spmv"] > 0 and made["trsv"] > 0
        assert seen == made, "kernel calls bypassed the fault plan"
        np.testing.assert_array_equal(faulted.x, twin.solve(b).x)

        # after the session the plan is out of the loop: fault-free solves
        # run on the bare engine, and plans bound to the proxy pass through
        assert get_backend() is inner
        np.testing.assert_array_equal(solver.solve(b).x, twin.solve(b).x)
        x = np.linspace(-1.0, 1.0, A.nrows)
        proxy_plan = plan_for(A, Precision.FP64, proxy)
        assert proxy_plan is not plan_for(A, Precision.FP64)
        np.testing.assert_array_equal(proxy_plan.apply(x),
                                      plan_for(A, Precision.FP64).apply(x))
        assert plan._counts == seen


class TestEnvActivation:
    def test_spec_parsing(self):
        try:
            plan = install_from_env(
                "seed=7,rate=0.02,sites=spmv+trsv,kinds=nan,"
                "worker_rate=0.1,latency=0.001,latency_rate=0.5,max=9")
            assert plan.seed == 7
            assert plan.rate == 0.02
            assert plan.sites == ("spmv", "trsv")
            assert plan.kinds == ("nan",)
            assert plan.worker_rate == 0.1
            assert plan.latency == 0.001
            assert plan.latency_rate == 0.5
            assert plan.max_faults == 9
            assert active_plan() is plan
        finally:
            install_plan(None)

    def test_bare_truthy_installs_defaults(self):
        try:
            plan = install_from_env("1")
            assert plan is not None
            assert plan.seed == 0
        finally:
            install_plan(None)

    def test_off_values_install_nothing(self):
        for spec in ("", "0", "off", "false", "no"):
            assert install_from_env(spec) is None
        assert active_plan() is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown REPRO_FAULTS key"):
            install_from_env("seed=1,bogus=2")
        install_plan(None)

    def test_repro_faults_env_activates_on_import(self):
        env = dict(os.environ)
        env["REPRO_FAULTS"] = "seed=3,rate=0.5,sites=spmv"
        env["PYTHONPATH"] = "src"
        code = ("import repro\n"
                "from repro.faults import active_plan\n"
                "plan = active_plan()\n"
                "assert plan is not None and plan.seed == 3, plan\n"
                "print('ok')\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestSolverReplay:
    def test_identical_records_across_runs(self, poisson_matrix):
        b = np.random.default_rng(0).uniform(-1, 1, poisson_matrix.nrows)

        def run():
            # fresh solver per run: escalated siblings and adaptive solver
            # state accumulate across solves, so replay starts from scratch
            solver = F3RSolver(poisson_matrix, config=F3RConfig(variant="fp16"),
                               nblocks=4)
            plan = FaultPlan(seed=13, rate=1.0, sites=("spmv",),
                             kinds=("nan",), max_faults=2)
            with inject(plan):
                result = solver.solve(b)
            return result, [r.summary() for r in plan.records]

        first, records_a = run()
        second, records_b = run()
        assert records_a == records_b
        assert first.converged and second.converged
        np.testing.assert_array_equal(first.x, second.x)


@pytest.mark.tier2
class TestFaultHammer:
    """The PR's acceptance run: a fault-injected mixed-precision serving
    workload must complete every request with recovery visible in stats."""

    def test_fifty_request_hammer_completes(self):
        matrices = [diagonal_scaling(hpcg_matrix(8))[0], poisson2d(16)]
        # the recovery ladder is 5 rungs deep and one kernel corruption can
        # poison at most one rung, so a 4-fault cap guarantees every request
        # converges no matter how the thread interleaving distributes them
        plan = FaultPlan(seed=11, rate=0.004, sites=("spmv", "trsv"),
                         kinds=("nan", "inf"), worker_rate=0.15,
                         latency=0.002, latency_rate=0.3, max_faults=4)
        rng = np.random.default_rng(17)
        with inject(plan):
            with BatchDispatcher(F3RConfig(variant="fp16", m1=10), nblocks=4,
                                 max_batch=4, max_workers=3,
                                 max_retries=3) as dispatcher:
                futures = []
                for i in range(50):
                    A = matrices[i % 2]
                    futures.append(dispatcher.submit(
                        A, rng.uniform(-1, 1, A.nrows)))
                dispatcher.drain()
                results = [f.result(timeout=120) for f in futures]

        # every request completed, and completed well
        assert len(results) == 50
        assert all(r.converged for r in results)
        # the machinery demonstrably did something
        assert plan.records, "the seeded plan fired no faults"
        recovered = [r for r in results if r.recovery is not None]
        summary = dispatcher.stats.summary()["recovery"]
        assert recovered or summary["retries"] > 0
        assert summary["breaker_trips"] == 0

    def test_hammer_replays_from_seed(self):
        A = poisson2d(12)
        rng_rhs = np.random.default_rng(4)
        b_pool = [rng_rhs.uniform(-1, 1, A.nrows) for _ in range(8)]

        def run():
            solver = F3RSolver(A, config=F3RConfig(variant="fp16"), nblocks=4)
            plan = FaultPlan(seed=29, rate=0.01, sites=("spmv", "trsv"),
                             kinds=("nan", "inf"), max_faults=6)
            outputs = []
            with inject(plan):
                for b in b_pool:
                    outputs.append(solver.solve(b).x)
            return outputs, [r.summary() for r in plan.records]

        out_a, rec_a = run()
        out_b, rec_b = run()
        assert rec_a == rec_b
        for xa, xb in zip(out_a, out_b):
            np.testing.assert_array_equal(xa, xb)
