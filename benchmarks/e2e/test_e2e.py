"""Self-test of the end-to-end benchmark's tracer and serving generator.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.f3r as f3r_module
from repro import F3RConfig, F3RSolver, SolvePlan, active_backend
from repro.matgen import get_matrix
from repro.perf import counting
from repro.precond.base import Preconditioner
from repro.solvers import FGMRESLevel, OuterFGMRES, RichardsonLevel
from repro.sparse import diagonal_scaling
from spans import Tracer, layer_totals, self_times
from workloads import run_serve

pytestmark = pytest.mark.tier1

WRAPPED = (F3RSolver, OuterFGMRES, FGMRESLevel, RichardsonLevel,
           Preconditioner, SolvePlan)


@pytest.fixture(scope="module")
def system():
    matrix, _ = diagonal_scaling(get_matrix("hpcg_7_7_7", "tiny"))
    rhs = np.random.default_rng(3).random(matrix.nrows)
    return matrix, rhs


def solve(system):
    matrix, rhs = system
    return F3RSolver(matrix, "auto", config=F3RConfig(variant="fp16")).solve(rhs)


def test_span_tree_nests_levels_and_counts_applications(system):
    with Tracer() as tracer, counting() as counter:
        result = solve(system)
    assert result.converged
    chains = set()
    for span in tracer.spans:
        if span[0] == "M" and span[3] is not None:
            chain, node = [], span
            while node is not None:
                chain.append(node[0])
                node = node[3]
            chains.add(tuple(chain))
    assert chains == {("M", "R4", "F3", "F2", "F1", "core")}

    totals = layer_totals(tracer.spans, since=float("-inf"))
    calls = {name: lv["calls"] for name, lv in totals["levels"].items()}
    assert calls["F1"] == 1
    assert calls["F2"] == result.iterations
    assert calls["F3"] == 8 * calls["F2"]
    assert calls["R4"] == 4 * calls["F3"]
    assert calls["M"] == 2 * calls["R4"] == result.preconditioner_applications
    own = self_times(tracer.spans)
    assert min(own.values()) >= 0.0
    roots = [s for s in tracer.spans if s[3] is None]
    assert sum(own.values()) == pytest.approx(
        sum(s[2] - s[1] for s in roots), rel=0.01)

    # the levels' self bytes partition the solve's traffic exactly
    expected = {p.label: b for p, b in counter.bytes_by_precision.items()}
    expected["index"] = counter.index_bytes
    assert totals["traffic"] == expected
    for label, nbytes in expected.items():
        assert sum(lv["bytes"].get(label, 0)
                   for lv in totals["levels"].values()) == nbytes


def test_tracing_leaves_answers_and_classes_untouched(system):
    backend = type(active_backend())
    owners = WRAPPED + (backend,)
    before = [dict(vars(owner)) for owner in owners]
    factory = f3r_module.make_primary_preconditioner
    plain = solve(system)
    with Tracer() as tracer:
        traced = solve(system)
        assert getattr(F3RSolver.solve, "__wrapped__", None) is not None
    assert tracer.spans
    assert np.array_equal(plain.x, traced.x)
    assert plain.iterations == traced.iterations
    assert [dict(vars(owner)) for owner in owners] == before
    assert f3r_module.make_primary_preconditioner is factory


def test_serve_open_forms_identical_batches_for_a_seed():
    compositions = []
    for _ in range(2):
        with Tracer(full=False) as tracer:
            out = run_serve(seed=7, bursts=6, tracer=tracer)
        assert out["requests"] and all(r["ok"] for r in out["requests"])
        compositions.append([root[5] for root in tracer.roots(out["since"])])
    assert compositions[0] == compositions[1]
    served = sorted(rid for batch in compositions[0] for rid in batch)
    assert served == list(range(len(served))) and len(served) >= 10
