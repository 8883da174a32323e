"""Solver guards, recovery ladder, and dispatcher hardening.

Covers the robustness layer end to end: breakdown/stagnation classification
(:mod:`repro.solvers.guards`), the escalation ladder
(:mod:`repro.core.recovery`) including fp16 -> fp32 escalation on injected
corruption, the guarded-vs-unguarded bit-identity contract, and the
dispatcher's boundary validation / deadlines / admission / retry / breaker /
drain behavior.  The randomized fault hammer lives in ``test_faults.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import F3RConfig, F3RSolver, RecoveryPolicy, SolveReport, use_recovery
from repro.core.recovery import recovery_enabled
from repro.faults import FaultPlan, inject
from repro.matgen import poisson2d
from repro.operators import LinearOperator
from repro.precond import ILU0Preconditioner
from repro.serve import (
    AdmissionRefused,
    BatchDispatcher,
    CircuitOpen,
    DeadlineExceeded,
    DispatcherClosed,
)
from repro.solvers import (
    InvalidInput,
    OuterFGMRES,
    SolveBreakdown,
    SolveEvent,
    SolveStagnation,
    StagnationWindow,
    classify_breakdown,
    guards_enabled,
    use_guards,
    validate_rhs,
)
from repro.solvers.guards import check_finite

pytestmark = pytest.mark.tier1


# --------------------------------------------------------------------------- #
class TestClassification:
    def test_happy_breakdown(self):
        assert classify_breakdown(0.0) == "happy"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_hard_breakdown(self, value):
        assert classify_breakdown(value) == "hard"

    def test_normal_iteration(self):
        assert classify_breakdown(0.5) is None

    def test_check_finite_passes_through(self):
        assert check_finite(1.25, "unit.site") == 1.25

    def test_check_finite_raises_structured(self):
        with pytest.raises(SolveBreakdown) as excinfo:
            check_finite(float("nan"), "unit.site", iteration=3,
                         columns=[1, 4])
        event = excinfo.value
        assert event.site == "unit.site"
        assert event.kind == "hard"
        assert event.iteration == 3
        assert event.columns == [1, 4]
        assert np.isnan(event.value)
        described = event.describe()
        assert described["event"] == "SolveBreakdown"
        assert described["site"] == "unit.site"

    def test_events_are_runtime_errors(self):
        # serving layers that predate the taxonomy still catch these
        assert issubclass(SolveBreakdown, SolveEvent)
        assert issubclass(SolveStagnation, SolveEvent)
        assert issubclass(SolveEvent, RuntimeError)
        assert issubclass(InvalidInput, ValueError)


class TestStagnationWindow:
    def test_no_fire_until_window_full(self):
        # three updates fill the window; the fourth is the first that can fire
        window = StagnationWindow(window=3, min_drop=0.10)
        assert window.update(1.0) is False
        assert window.update(0.99) is False
        assert window.update(0.985) is False
        assert window.update(0.98) is True          # 2% drop over 3 cycles

    def test_healthy_progress_never_fires(self):
        window = StagnationWindow(window=3, min_drop=0.10)
        assert not any(window.update(10.0 ** -k) for k in range(8))

    def test_non_finite_residual_counts_as_stalled(self):
        window = StagnationWindow(window=2, min_drop=0.10)
        window.update(1.0)
        window.update(0.5)
        assert window.update(float("nan")) is True

    def test_check_raises_with_progress(self):
        window = StagnationWindow(window=2, min_drop=0.50)
        window.update(1.0)
        window.update(0.9)
        with pytest.raises(SolveStagnation) as excinfo:
            window.check(0.85, "unit.stagnation")
        event = excinfo.value
        assert event.site == "unit.stagnation"
        assert event.window == 2
        assert event.progress == pytest.approx(0.15)

    def test_outer_solve_raises_when_armed(self, poisson_matrix):
        # impossible tolerance: with the window armed, the solver raises
        # stagnation instead of silently exhausting its restarts
        solver = OuterFGMRES(poisson_matrix, ILU0Preconditioner(poisson_matrix),
                             m=5, tol=1e-300, max_restarts=10)
        b = np.random.default_rng(0).uniform(-1, 1, poisson_matrix.nrows)
        with pytest.raises(SolveStagnation) as excinfo:
            solver.solve(b, stagnation=StagnationWindow(window=2, min_drop=0.5))
        assert excinfo.value.iterate is not None
        assert np.all(np.isfinite(excinfo.value.iterate))

    def test_outer_solve_unarmed_keeps_legacy_behavior(self, poisson_matrix):
        solver = OuterFGMRES(poisson_matrix, ILU0Preconditioner(poisson_matrix),
                             m=5, tol=1e-300, max_restarts=10)
        b = np.random.default_rng(0).uniform(-1, 1, poisson_matrix.nrows)
        result = solver.solve(b)
        assert not result.converged
        assert result.restarts == solver.max_restarts + 1


class TestInputValidation:
    def test_validate_rhs_shape(self):
        with pytest.raises(InvalidInput) as excinfo:
            validate_rhs(np.ones(5), "unit.boundary", expected_rows=7)
        assert excinfo.value.site == "unit.boundary"
        assert excinfo.value.detail["expected_rows"] == 7

    def test_validate_rhs_non_finite(self):
        b = np.ones((6, 2))
        b[3, 1] = np.nan
        with pytest.raises(InvalidInput) as excinfo:
            validate_rhs(b, "unit.boundary")
        assert excinfo.value.detail["first_bad_row"] == 3

    def test_validation_survives_guards_kill_switch(self):
        # a NaN RHS is an input error, not a solver event: REPRO_GUARDS=0
        # must not disable the boundary check
        with use_guards(False):
            with pytest.raises(InvalidInput):
                validate_rhs(np.array([1.0, np.nan]), "unit.boundary")

    def test_f3r_rejects_non_finite_rhs(self, poisson_matrix):
        solver = F3RSolver(poisson_matrix, nblocks=4)
        with pytest.raises(InvalidInput):
            solver.solve(np.full(poisson_matrix.nrows, np.inf))
        bad = np.ones((poisson_matrix.nrows, 3))
        bad[0, 2] = np.nan
        with pytest.raises(InvalidInput):
            solver.solve_batch(bad)

    def test_f3r_shape_errors_unchanged(self, poisson_matrix):
        # the detailed (n, k)-vs-(k, n) diagnostics still come from the
        # solver layer
        solver = F3RSolver(poisson_matrix, nblocks=4)
        with pytest.raises(InvalidInput):
            solver.solve(np.ones(3))


# --------------------------------------------------------------------------- #
class TestGuardedParity:
    """REPRO_GUARDS=1 with no event firing is bit-identical to guards off."""

    @pytest.mark.parametrize("variant", ["fp16", "fp32", "fp64"])
    def test_solve_bit_identical(self, poisson_matrix, variant):
        b = np.random.default_rng(3).uniform(-1, 1, poisson_matrix.nrows)
        config = F3RConfig(variant=variant)
        results = {}
        for guarded in (True, False):
            with use_guards(guarded):
                solver = F3RSolver(poisson_matrix, config=config, nblocks=4)
                results[guarded] = solver.solve(b)
        assert np.array_equal(results[True].x, results[False].x)
        assert results[True].iterations == results[False].iterations
        assert results[True].relative_residual == results[False].relative_residual

    def test_solve_batch_bit_identical(self, poisson_matrix):
        b = np.random.default_rng(4).uniform(-1, 1, (poisson_matrix.nrows, 4))
        results = {}
        for guarded in (True, False):
            with use_guards(guarded):
                solver = F3RSolver(poisson_matrix,
                                   config=F3RConfig(variant="fp16"), nblocks=4)
                results[guarded] = solver.solve_batch(b)
        assert np.array_equal(results[True].x, results[False].x)
        assert np.array_equal(results[True].iterations,
                              results[False].iterations)


# --------------------------------------------------------------------------- #
class TestRecoveryLadder:
    """Fault sessions run with solve plans disabled: a compiled plan binds
    kernel methods when it is built, so only plan-free solves are guaranteed
    to route every matvec through the (wrapped) live backend regardless of
    what earlier tests left in the fingerprint-keyed plan cache."""

    def _plan(self, **overrides):
        kwargs = dict(seed=5, rate=1.0, sites=("spmv",), kinds=("nan",),
                      max_faults=2)
        kwargs.update(overrides)
        return FaultPlan(**kwargs)

    def test_escalates_fp16_to_fp32_on_corruption(self, poisson_matrix):
        b = np.random.default_rng(1).uniform(-1, 1, poisson_matrix.nrows)
        solver = F3RSolver(poisson_matrix, config=F3RConfig(variant="fp16"),
                           nblocks=4)
        # two faults: the initial attempt and the restart both hit a
        # poisoned matvec, so the ladder must climb to fp32
        with inject(self._plan()):
            result = solver.solve(b)
        assert result.converged
        report = result.recovery
        assert isinstance(report, SolveReport)
        assert report.succeeded
        stages = [a.stage for a in report.attempts]
        assert stages[0] == "initial"
        assert "escalate:fp32" in stages
        assert report.final_stage == "escalate:fp32"
        assert report.escalations >= 1
        assert report.events, "the triggering guard events must be recorded"
        assert result.summary()["recovery"]["succeeded"] is True

    def test_escalated_solver_reuses_preconditioner(self, poisson_matrix):
        solver = F3RSolver(poisson_matrix, config=F3RConfig(variant="fp16"),
                           nblocks=4)
        escalated = solver._escalated("fp32")
        assert escalated.preconditioner is solver.preconditioner
        assert escalated.config.variant == "fp32"
        assert solver._escalated("fp32") is escalated   # cached

    def test_batch_recovers_per_column(self, poisson_matrix):
        b = np.random.default_rng(2).uniform(-1, 1, (poisson_matrix.nrows, 4))
        solver = F3RSolver(poisson_matrix, config=F3RConfig(variant="fp16"),
                           nblocks=4)
        with inject(self._plan(max_faults=2)):
            batch = solver.solve_batch(b)
        assert batch.all_converged
        # at least one column went through the ladder
        assert any(r.recovery is not None for r in batch.results)
        for j, r in enumerate(batch.results):
            relres = np.linalg.norm(b[:, j] - poisson_matrix.matvec(
                batch.x[:, j], record=False)) / np.linalg.norm(b[:, j])
            assert relres < 1e-6

    def test_event_propagates_when_recovery_disabled(self, poisson_matrix):
        b = np.random.default_rng(1).uniform(-1, 1, poisson_matrix.nrows)
        solver = F3RSolver(poisson_matrix, config=F3RConfig(variant="fp16"),
                           nblocks=4)
        with inject(self._plan()), use_recovery(False):
            with pytest.raises(SolveEvent):
                solver.solve(b)

    def test_recovery_constructor_opt_out(self, poisson_matrix):
        b = np.random.default_rng(1).uniform(-1, 1, poisson_matrix.nrows)
        solver = F3RSolver(poisson_matrix, config=F3RConfig(variant="fp16"),
                           nblocks=4, recovery=False)
        with inject(self._plan()):
            with pytest.raises(SolveEvent):
                solver.solve(b)

    def test_recovery_requires_guards(self):
        with use_guards(False):
            assert not recovery_enabled()
        with use_guards(True):
            assert recovery_enabled()

    def test_clean_solve_has_no_report(self, poisson_matrix):
        b = np.random.default_rng(6).uniform(-1, 1, poisson_matrix.nrows)
        solver = F3RSolver(poisson_matrix, config=F3RConfig(variant="fp16"),
                           nblocks=4)
        result = solver.solve(b)
        assert result.converged
        assert result.recovery is None

    def test_policy_tunables_reach_report(self, poisson_matrix):
        policy = RecoveryPolicy(restart_first=False, alpha_boost=4.0)
        b = np.random.default_rng(1).uniform(-1, 1, poisson_matrix.nrows)
        solver = F3RSolver(poisson_matrix, config=F3RConfig(variant="fp16"),
                           nblocks=4, recovery=policy)
        with inject(self._plan(max_faults=1)):
            result = solver.solve(b)
        assert result.converged
        assert all(a.stage != "restart" for a in result.recovery.attempts)


# --------------------------------------------------------------------------- #
class _ExplodingOperator(LinearOperator):
    """Matrix-free operator whose preconditioner setup always fails."""

    def __init__(self, n: int = 16) -> None:
        self.shape = (n, n)

    @property
    def dtype(self):
        return np.dtype(np.float64)

    @property
    def nnz_per_row(self) -> float:
        return 1.0

    def apply(self, x, out_precision=None, record=True):
        return np.asarray(x, dtype=np.float64).copy()

    def fingerprint(self) -> str:
        return "test-exploding-operator"

    def astype(self, precision):
        return self

    def diagonal(self) -> np.ndarray:
        raise ValueError("synthetic setup failure")


class TestDispatcherHardening:
    CONFIG = F3RConfig(variant="fp16", m1=10)

    def test_submit_after_close_is_typed(self, poisson_matrix):
        dispatcher = BatchDispatcher(self.CONFIG, nblocks=4)
        dispatcher.close()
        with pytest.raises(DispatcherClosed, match="closed"):
            dispatcher.submit(poisson_matrix, np.ones(poisson_matrix.nrows))

    def test_close_nowait_fails_undispatched_futures(self, poisson_matrix):
        dispatcher = BatchDispatcher(self.CONFIG, nblocks=4, max_batch=64)
        future = dispatcher.submit(poisson_matrix,
                                   np.ones(poisson_matrix.nrows))
        dispatcher.close(wait=False)
        with pytest.raises(DispatcherClosed):
            future.result(timeout=10)

    def test_rejects_non_finite_rhs_before_setup(self, poisson_matrix):
        with BatchDispatcher(self.CONFIG, nblocks=4) as dispatcher:
            bad = np.ones(poisson_matrix.nrows)
            bad[7] = np.nan
            with pytest.raises(InvalidInput) as excinfo:
                dispatcher.submit(poisson_matrix, bad)
            assert excinfo.value.site == "dispatcher.submit"
            assert dispatcher.stats.requests == 0   # rejected before admission

    def test_admission_bound(self, poisson_matrix):
        b = np.ones(poisson_matrix.nrows)
        dispatcher = BatchDispatcher(self.CONFIG, nblocks=4, max_batch=64,
                                     max_queue=2)
        try:
            dispatcher.submit(poisson_matrix, b)
            dispatcher.submit(poisson_matrix, b)
            with pytest.raises(AdmissionRefused):
                dispatcher.submit(poisson_matrix, b)
            assert dispatcher.stats.summary()["recovery"]["rejected"] == 1
            dispatcher.drain()
            # completed requests release their admission slots
            dispatcher.submit(poisson_matrix, b)
            dispatcher.drain()
        finally:
            dispatcher.close()

    def test_deadline_miss(self, poisson_matrix):
        dispatcher = BatchDispatcher(self.CONFIG, nblocks=4, max_batch=64)
        try:
            future = dispatcher.submit(poisson_matrix,
                                       np.ones(poisson_matrix.nrows),
                                       deadline=0.0)
            time.sleep(0.01)
            dispatcher.drain()
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=10)
            assert dispatcher.stats.summary()["recovery"]["deadline_misses"] == 1
        finally:
            dispatcher.close()

    def test_generous_deadline_is_met(self, poisson_matrix):
        with BatchDispatcher(self.CONFIG, nblocks=4) as dispatcher:
            future = dispatcher.submit(poisson_matrix,
                                       np.ones(poisson_matrix.nrows),
                                       deadline=60.0)
            dispatcher.drain()
            assert future.result(timeout=10).converged

    def test_circuit_breaker_opens_after_repeated_setup_failures(self):
        exploding = _ExplodingOperator()
        dispatcher = BatchDispatcher(self.CONFIG, max_batch=1, max_workers=1,
                                     max_retries=0, breaker_threshold=2,
                                     breaker_cooldown=3600.0)
        try:
            futures = [dispatcher.submit(exploding, np.ones(exploding.nrows))
                       for _ in range(3)]
            dispatcher.drain()
            with pytest.raises(ValueError, match="synthetic setup failure"):
                futures[0].result(timeout=10)
            with pytest.raises((ValueError, CircuitOpen)):
                futures[1].result(timeout=10)
            # by the third batch the breaker is open: fail fast, no rebuild
            with pytest.raises(CircuitOpen):
                futures[2].result(timeout=10)
            assert dispatcher.stats.summary()["recovery"]["breaker_trips"] == 1
        finally:
            dispatcher.close()

    def test_worker_death_retries_instead_of_failing(self, poisson_matrix):
        # the first execution of the batch dies; the retry runs fault-free
        # and the requests complete
        calls = {"n": 0}

        def fail_first(site="dispatcher.worker"):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic worker death")

        rng = np.random.default_rng(8)
        with BatchDispatcher(self.CONFIG, nblocks=4, max_batch=2,
                             max_retries=2, retry_backoff=0.01) as dispatcher:
            import repro.serve.dispatcher as dispatcher_mod
            original = dispatcher_mod.maybe_fail_worker
            dispatcher_mod.maybe_fail_worker = fail_first
            try:
                futures = [dispatcher.submit(poisson_matrix,
                                             rng.uniform(-1, 1, poisson_matrix.nrows))
                           for _ in range(2)]
                dispatcher.drain()
            finally:
                dispatcher_mod.maybe_fail_worker = original
            results = [f.result(timeout=30) for f in futures]
        assert all(r.converged for r in results)
        assert dispatcher.stats.summary()["recovery"]["retries"] == 2

    def test_escalations_surface_in_stats(self, poisson_matrix):
        # three faults: batch attempt, good-column re-batch, and the first
        # per-column restart all get poisoned, so the ladder must escalate
        plan = FaultPlan(seed=5, rate=1.0, sites=("spmv",), kinds=("nan",),
                         max_faults=3)
        rng = np.random.default_rng(9)
        with inject(plan):
            with BatchDispatcher(self.CONFIG, nblocks=4, max_batch=2,
                                 max_retries=2) as dispatcher:
                futures = [dispatcher.submit(poisson_matrix,
                                             rng.uniform(-1, 1, poisson_matrix.nrows))
                           for _ in range(2)]
                dispatcher.drain()
                results = [f.result(timeout=60) for f in futures]
        assert all(r.converged for r in results)
        summary = dispatcher.stats.summary()["recovery"]
        assert set(summary) == {"escalations", "retries", "breaker_trips",
                                "deadline_misses", "rejected"}
        assert summary["escalations"] + summary["retries"] >= 1
