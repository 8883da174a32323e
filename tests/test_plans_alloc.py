"""Allocation regression: warm steady-state solves allocate no arena arrays.

The compiled-plan hot loop pre-binds kernels and pre-sizes its workspace
arenas during the first (warm-up) solves; after that, a steady-state F3R
solve must request **zero** new arena allocations — the process-wide
:func:`repro.backends.workspace.arena_alloc_count` stays flat — and must not
leak per-iteration garbage (net traced memory growth across repeated
identical solves stays within noise).
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.backends.workspace import arena_alloc_count
from repro.core import F3RConfig, F3RSolver
from repro.matgen import hpcg_operator, poisson2d

pytestmark = pytest.mark.tier1


def _warm_solver(matrix, **kwargs):
    cfg = F3RConfig(variant="fp16", backend="fast")
    solver = F3RSolver(matrix, preconditioner="auto", config=cfg, **kwargs)
    return solver


class TestAllocationRegression:
    @pytest.mark.parametrize("problem", ["stencil", "assembled"])
    def test_zero_arena_allocations_after_warmup(self, problem):
        if problem == "stencil":
            matrix = hpcg_operator(10)
            solver = _warm_solver(matrix)
        else:
            matrix = poisson2d(24)
            solver = _warm_solver(matrix, nblocks=4)
        rng = np.random.default_rng(0)
        b = rng.uniform(-1, 1, matrix.nrows)
        solver.solve(b)
        solver.solve(b)                          # plans, arenas, casts warm
        before = arena_alloc_count()
        for _ in range(3):
            result = solver.solve(b)
        assert arena_alloc_count() == before, \
            "steady-state solve allocated fresh arena arrays"
        assert result.converged

    def test_no_traced_memory_growth_across_warm_solves(self):
        matrix = poisson2d(24)
        solver = _warm_solver(matrix, nblocks=4)
        rng = np.random.default_rng(1)
        b = rng.uniform(-1, 1, matrix.nrows)
        solver.solve(b)
        solver.solve(b)
        gc.collect()
        tracemalloc.start()
        solver.solve(b)
        gc.collect()
        first, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            solver.solve(b)
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # repeated identical solves must not accumulate state; allow a small
        # slack for interpreter-level noise (caches, interned objects)
        assert current - first < 128 * 1024, \
            f"warm solves grew traced memory by {current - first} bytes"
