"""Micro-benchmarks for the kernel engine: reference vs fast backend, and
batched (multi-RHS) vs looped execution.

Times the three hot kernels — CSR SpMV, level-scheduled triangular solve,
and one FGMRES(m) cycle on a one-column block — on both
registered backends, the fp16 level solve on subnormal-heavy input for a
wide-level factor (staged through fp32 by the fast engine) and a
one-row-per-level chain (direct), one application of the end-to-end hard
operator's preconditioner M (its fused block-ILU(0) L then U solve, fp64 and
fp16) and that operator's fp16 residual ``y − A·x``, the fp16 CSR product on
subnormal-heavy input, the fp16 Richardson update ``z + ω·mr`` and residual
``v − az`` on subnormal-heavy vectors, the fp16 separable stencil sweep (HPCG 24³, one
column and eight), the 8-column fp16 diagonal scaling, the fp32 → fp16 and
fp16 → fp32 casts of a normalized Krylov-basis block (HPCG 24³ × 8, and one
729-entry vector below ``native``'s cast gate), the compiled ``native``
engine's rows (the triangular solves, the fp16 CSR products, the two fp16
updates, the stencil sweeps, the diagonal scaling, the casts, and the
products F^m3 and F^m1 issue on assembled storage — the fp16-stored x fp32
CSR product, the fp64 CSR product and fused residual — on
atmosmodd ``tiny`` and on the hard operator, where it builds; each must
equal ``fast`` bit for bit, or the run exits 1),
plus the CSR product and the triangular solve on an ``(n, k)`` block against
``k`` vector calls (rows ``spmm_csr`` and ``trsm``), a full ``solve_batch`` of
the fp16-F3R solver against ``k`` sequential ``solve`` calls, the
matrix-free stencil applies (single + batched) against the assembled CSR
kernels on the HPCG 27-point operator at a 64³ grid, and — where ``native``
builds — the ``dispatch`` rows: one compiled fp16 ``trsv`` and
``weighted_update`` call through the engine against the bare ctypes call on
729-row operands (the serving workload's largest), so the wrapper's cost per
call is a reported number, and the ``richardson`` rows: one R^m4
invocation (m = 2, k = 1, weights frozen) in uniform fp16, fp64 and fp32 as
``native``'s compiled sweep against the level's loop on ``fast`` and on
``native``'s own kernels, on atmosmodd ``tiny`` and on the hard operator
(each must equal the loop on ``fast`` bit for bit, or the run exits 1), and
emits a ``BENCH_kernels.json`` speedup summary.

Not collected by pytest (the tier-1 suite); run directly or via make:

    PYTHONPATH=src python benchmarks/bench_kernels.py --scale smoke --check
    PYTHONPATH=src python benchmarks/bench_kernels.py --scale medium \
        --require 3.0 --require-batched 3.0

``--check`` compares the measured speedups against the committed baseline
(``benchmarks/BENCH_kernels_baseline.json``) and exits non-zero when any
kernel's fast-backend (or batched-over-looped / matrix-free-over-assembled)
speedup regressed by more than 2x — speedup ratios are compared rather than
wall times so the gate is stable across machines.  ``--require X`` enforces
an absolute floor on the FGMRES-cycle speedup (kernel-engine
issue), ``--require-batched X`` on the ``solve_batch`` speedup (batched-solve
issue), and ``--require-stencil X`` on the matrix-free-over-assembled apply
speedups (operator-layer issue: the batched stencil apply must beat the
assembled CSR SpMM at >= 64³ grid points).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.backends import available_backends, get_backend, use_backend
from repro.core import F3RConfig, F3RSolver
from repro.matgen import get_matrix, hpcg_matrix, hpcg_operator, poisson2d
from repro.precision import Precision
from repro.precond import BlockJacobiILU0, ilu0_factor
from repro.operators import as_operator
from repro.solvers import RichardsonLevel, fgmres_cycle_batch
from repro.sparse import CSRMatrix, TriangularFactor, diagonal_scaling

#: grid side of the 5-point Poisson problem per scale (n = side^2 unknowns)
SCALES = {"smoke": 90, "small": 160, "medium": 300}

#: grid side of the end-to-end ``solve_batch`` benchmark per scale (kept
#: smaller than the kernel grid: it times 8 full emulated F3R solves)
SOLVE_SCALES = {"smoke": 40, "small": 90, "medium": 300}

#: right-hand sides per batch in the batched benchmarks
BATCH_K = 8

#: the fp16 level-solve rows: the ILU(0) L factor of the HPCG 27-point
#: matrix on a 16^3 grid averages ~440 gathers per level, past the fast
#: engine's staging gate; the chain factor has one row and one gather per
#: level, the shape of G3_circuit's fused IC(0) at ``tiny`` scale
WIDE_GRID = 16
CHAIN_ROWS = 600

#: the rows the compiled native engine ports, timed on it where it builds
NATIVE_ROWS = ("trsv", "trsv_fp16_wide", "trsv_fp16_chain", "trsv_blocks",
               "trsv_fp16_blocks", "spmv_csr_fp16", "spmv_axpy_fp16",
               "weighted_update_fp16", "residual_update_fp16",
               "apply_stencil_fp16", "apply_stencil_fp16_k8", "diag_scale_fp16",
               "cast_f32_f16", "cast_f16_f32", "cast_f32_f16_729",
               "cast_f16_f32_729",
               *(f"{row}_{size}" for size in ("tiny", "hard")
                 for row in ("spmv_csr_fp16x32", "spmv_csr_fp64", "spmv_axpy_fp64")))

#: the hard e2e workload's operator (``benchmarks/e2e``): the Table-2
#: ``vas_stokes_1M`` surrogate at ``small`` scale, diagonally scaled, with a
#: block-ILU(0) preconditioner over 10 blocks
HARD_MATRIX = ("vas_stokes_1M", "small")
HARD_BLOCKS = 10

#: a serve-open operator of the e2e benchmark, for the product rows at its
#: size
TINY_MATRIX = ("atmosmodd", "tiny")

#: grid side of the fp16 stencil-sweep and diagonal-scaling rows: the
#: matrix-free e2e workload's HPCG grid
HALF_STENCIL_GRID = 24

#: grid side of the small cast rows: 9³ = 729 entries, the largest operator
#: of the serving workload, below ``native``'s cast gate
SMALL_CAST_GRID = 9

#: grid side of the dispatch rows: HPCG 9³, 729 rows, the serving
#: workload's largest operator
DISPATCH_GRID = 9

#: grid side of the matrix-free stencil benchmark (HPCG 27-point); 64³ is the
#: operator-layer acceptance threshold — the batched matrix-free apply must
#: beat the assembled CSR SpMM at this size
STENCIL_GRID = 64

BASELINE_PATH = Path(__file__).parent / "BENCH_kernels_baseline.json"
OUTPUT_PATH = Path(__file__).parent / "BENCH_kernels.json"

#: kernels the --require floor applies to (the kernel-engine acceptance criterion)
REQUIRED_KERNELS = ("fgmres_cycle",)

#: batched entries the --require-batched floor applies to
REQUIRED_BATCHED = ("solve_batch",)

#: stencil entries the --require-stencil floor applies to
REQUIRED_STENCIL = ("stencil_apply", "stencil_apply_batch")

#: fused entries the --require-fused floor applies to (solve-plan issue)
REQUIRED_FUSED = ("spmv_axpy", "orthonormalize", "weighted_update_fp16")


def _time(fn, repeats: int, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn`` (seconds)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def build_problem(side: int):
    """Poisson 5-point matrix + derived operands shared by every kernel."""
    matrix = poisson2d(side)
    n = matrix.nrows
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, n)
    lower, _ = ilu0_factor(matrix)
    # fp16 level-solve factors with subnormal-heavy fp16 right-hand sides
    wide, _ = ilu0_factor(hpcg_matrix(WIDE_GRID))
    wide_b16 = (rng.uniform(-1.0, 1.0, wide.nrows) * 6e-5).astype(np.float16)
    chain_b16 = (rng.uniform(-1.0, 1.0, CHAIN_ROWS) * 6e-5).astype(np.float16)
    x16 = (rng.uniform(-1.0, 1.0, n) * 6e-5).astype(np.float16)
    z16 = (rng.uniform(-1.0, 1.0, n) * 2e-5).astype(np.float16)
    # the fp16 stencil sweep on one column and on eight, and a Jacobi-style
    # diagonal scaling of the eight
    stencil16 = hpcg_operator(HALF_STENCIL_GRID).astype(Precision.FP16)
    block16 = rng.uniform(-1.0, 1.0, (stencil16.nrows, BATCH_K)).astype(np.float16)
    scale16 = (1.0 / rng.uniform(20.0, 30.0, stencil16.nrows)).astype(np.float16)
    # the level-boundary casts, on the magnitudes they see in a solve
    krylov32 = _krylov_block(HALF_STENCIL_GRID, BATCH_K, rng)
    small32 = _krylov_block(SMALL_CAST_GRID, 1, rng)[:, 0]
    # the hard workload's M (fused block-ILU(0) factors) and fp16 residual
    hard, _ = diagonal_scaling(get_matrix(*HARD_MATRIX))
    hard_lower, _, hard_upper = BlockJacobiILU0(hard, nblocks=HARD_BLOCKS)._fused_parts()
    hard_b = rng.uniform(-1.0, 1.0, hard.nrows)
    # the products F^m3 (fp16-stored matrix x fp32) and F^m1 (fp64) issue on
    # assembled storage, at a serve-open operator's size and at hard's
    tiny, _ = diagonal_scaling(get_matrix(*TINY_MATRIX))
    products = {}
    for size, mat in (("tiny", tiny), ("hard", hard)):
        mat16 = mat.astype(Precision.FP16)
        products[size] = {"csr16": mat16, "csr64": mat,
                          "x32": rng.uniform(-1.0, 1.0, mat.nrows).astype(np.float32),
                          "x64": rng.uniform(-1.0, 1.0, mat.nrows),
                          "y64": rng.uniform(-1.0, 1.0, mat.nrows)}
    return {"products": products, "matrix": matrix, "lower": lower, "x": x, "n": n,
            "matrix16": matrix.astype(Precision.FP16), "x16": x16, "z16": z16,
            "wide": wide, "wide_b16": wide_b16,
            "chain": _chain_lower(CHAIN_ROWS), "chain_b16": chain_b16,
            "stencil16": stencil16, "block16": block16, "scale16": scale16,
            "column16": np.ascontiguousarray(block16[:, 0]),
            "krylov32": krylov32, "krylov16": krylov32.astype(np.float16),
            "small32": small32, "small16": small32.astype(np.float16),
            "hard16": hard.astype(Precision.FP16), "hard_lower": hard_lower,
            "hard_upper": hard_upper, "hard_b": hard_b,
            "hard_b16": hard_b.astype(np.float16),
            "hard_y16": rng.uniform(-1.0, 1.0, hard.nrows).astype(np.float16)}


def _krylov_block(side: int, k: int, rng) -> np.ndarray:
    """fp32 ``(side³, k)``: the unit-norm columns ``A² b / ‖A² b‖`` of the
    HPCG operator for ``k`` uniform right-hand sides ``b``, the magnitudes a
    Krylov basis hands the fp16 level."""
    op = hpcg_operator(side)
    w = rng.random((op.nrows, k))
    for _ in range(2):
        w = op.apply_batch(w)
    return np.ascontiguousarray(w / np.linalg.norm(w, axis=0), dtype=np.float32)


def _chain_lower(n: int) -> CSRMatrix:
    """Lower bidiagonal matrix: row ``i`` depends on row ``i - 1`` only."""
    cols = np.stack([np.arange(n) - 1, np.arange(n)], axis=1).ravel()[1:]
    vals = np.tile([-0.5, 1.0], n)[1:]
    indptr = np.concatenate(([0], 1 + 2 * np.arange(n)))
    return CSRMatrix(vals, cols.astype(np.int32), indptr.astype(np.int32), (n, n))


def bench_backend(problem, backend: str, repeats: int, m: int,
                  rows=None) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Best-of wall time of each kernel row (all, or ``rows``) on
    ``backend``, and the result of each :data:`NATIVE_ROWS` row."""
    matrix = problem["matrix"]
    x = problem["x"]
    z16, x16 = problem["z16"], problem["x16"]
    stencil16, block16 = problem["stencil16"], problem["block16"]
    with use_backend(backend):
        engine = get_backend()
        # fresh factor per backend so plan caching is part of the measurement's
        # warmup, not carried over from the other engine
        factor = TriangularFactor(problem["lower"], lower=True, unit_diagonal=True)
        wide16 = TriangularFactor(problem["wide"], lower=True,
                                  unit_diagonal=True).astype(Precision.FP16)
        chain16 = TriangularFactor(problem["chain"], lower=True).astype(
            Precision.FP16)
        blocks = [problem[f"hard_{side}"].astype(p) for p in (Precision.FP64,
                                                              Precision.FP16)
                  for side in ("lower", "upper")]
        hard16 = problem["hard16"]
        calls = {
            "spmv_csr": lambda: matrix.matvec(x),
            "spmv_csr_fp16": lambda: problem["matrix16"].matvec(problem["x16"]),
            "trsv": lambda: factor.solve(x),
            "trsv_fp16_wide": lambda: wide16.solve(problem["wide_b16"]),
            "trsv_fp16_chain": lambda: chain16.solve(problem["chain_b16"]),
            # one application of M: the L solve, then the U solve
            "trsv_blocks": lambda: blocks[1].solve(blocks[0].solve(problem["hard_b"])),
            "trsv_fp16_blocks": lambda: blocks[3].solve(
                blocks[2].solve(problem["hard_b16"])),
            "spmv_axpy_fp16": lambda: engine.spmv_axpy(
                hard16.values, hard16.indices, hard16.indptr, problem["hard_b16"],
                problem["hard_y16"], record=False, scratch=hard16.scratch()),
            # the Richardson update consumes z: each call updates a copy
            "weighted_update_fp16": lambda: engine.weighted_update(
                z16.copy(), x16, 0.97, Precision.FP16, record=False),
            "residual_update_fp16": lambda: engine.residual_update(
                z16, x16, record=False),
            "apply_stencil_fp16": lambda: engine.apply_stencil(
                stencil16, problem["column16"], record=False),
            "apply_stencil_fp16_k8": lambda: engine.apply_stencil(
                stencil16, block16, record=False),
            "diag_scale_fp16": lambda: engine.diag_scale(
                problem["scale16"], block16, record=False),
            "cast_f32_f16": lambda: engine.cast(
                problem["krylov32"], Precision.FP16, record=False),
            "cast_f16_f32": lambda: engine.cast(
                problem["krylov16"], Precision.FP32, record=False),
            "cast_f32_f16_729": lambda: engine.cast(
                problem["small32"], Precision.FP16, record=False),
            "cast_f16_f32_729": lambda: engine.cast(
                problem["small16"], Precision.FP32, record=False),
            **{name: call for size, p in problem["products"].items()
               for name, call in _product_calls(engine, size, p).items()},
            # the one Arnoldi loop on a one-column block (a single RHS)
            "fgmres_cycle": lambda: fgmres_cycle_batch(matrix, x[:, None], None, m=m,
                                                       vec_prec=Precision.FP64),
        }
        times = {name: _time(calls[name], repeats) for name in rows or calls}
        outputs = {name: calls[name]() for name in times if name in NATIVE_ROWS}
    return times, outputs


def _product_calls(engine, size: str, p: dict) -> dict:
    """The product rows at one operator size: CSR products with the
    matrix's arena, as a solve plan issues them."""
    csr16, csr64 = p["csr16"], p["csr64"]
    return {
        f"spmv_csr_fp16x32_{size}": lambda: engine.spmv_csr(
            csr16.values, csr16.indices, csr16.indptr, p["x32"], record=False,
            scratch=csr16.scratch()),
        f"spmv_csr_fp64_{size}": lambda: engine.spmv_csr(
            csr64.values, csr64.indices, csr64.indptr, p["x64"], record=False,
            scratch=csr64.scratch()),
        f"spmv_axpy_fp64_{size}": lambda: engine.spmv_axpy(
            csr64.values, csr64.indices, csr64.indptr, p["x64"], p["y64"],
            record=False, scratch=csr64.scratch()),
    }


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def bench_batched_kernels(problem, repeats: int, k: int = BATCH_K) -> dict[str, dict]:
    """Block-vs-looped timings of the CSR product and the triangular solve
    on the fast engine (one kernel call on ``(n, k)`` against ``k`` vector
    calls; the rows keep their ``spmm_csr`` / ``trsm`` names)."""
    matrix = problem["matrix"]
    x_block = np.random.default_rng(1).uniform(-1.0, 1.0, (problem["n"], k))
    entries = {}
    with use_backend("fast"):
        factor = TriangularFactor(problem["lower"], lower=True, unit_diagonal=True)
        looped = _time(lambda: [matrix.matvec(np.ascontiguousarray(x_block[:, j]))
                                for j in range(k)], repeats)
        batched = _time(lambda: matrix.matmat(x_block), repeats)
        entries["spmm_csr"] = {"looped_s": looped, "batched_s": batched}
        looped = _time(lambda: [factor.solve(np.ascontiguousarray(x_block[:, j]))
                                for j in range(k)], repeats)
        batched = _time(lambda: factor.solve_batch(x_block), repeats)
        entries["trsm"] = {"looped_s": looped, "batched_s": batched}
    for row in entries.values():
        row["speedup"] = round(row["looped_s"] / row["batched_s"]
                               if row["batched_s"] > 0 else float("inf"), 3)
        row["k"] = k
    return entries


def bench_solve_batch(scale: str, k: int = BATCH_K) -> dict:
    """``solve_batch`` with ``k`` RHS vs ``k`` sequential fp16-F3R solves.

    Measures the end-to-end amortization the batched stack buys: one
    preconditioner setup, SpMM matvecs, batched triangular solves, and
    lockstep inner levels against ``k`` independent solves of the same
    solver object (best-of-1: the solves are deterministic and expensive).
    """
    matrix = poisson2d(SOLVE_SCALES[scale])
    rhs = np.random.default_rng(2).uniform(-1.0, 1.0, (matrix.nrows, k))
    config = F3RConfig(variant="fp16", tol=1e-8, backend="fast")
    solver = F3RSolver(matrix, preconditioner="auto", nblocks=16, config=config)
    # warm up kernels, plans and arenas outside the measurement
    solver.solve(rhs[:, 0])
    solver.solve_batch(rhs[:, :2])

    start = time.perf_counter()
    sequential = [solver.solve(np.ascontiguousarray(rhs[:, j])) for j in range(k)]
    looped_s = time.perf_counter() - start
    start = time.perf_counter()
    batch = solver.solve_batch(rhs)
    batched_s = time.perf_counter() - start
    return {
        "looped_s": looped_s,
        "batched_s": batched_s,
        "speedup": round(looped_s / batched_s if batched_s > 0 else float("inf"), 3),
        "k": k,
        "n": matrix.nrows,
        "all_converged": bool(all(r.converged for r in sequential)
                              and batch.all_converged),
    }


def bench_stencil(repeats: int, k: int = BATCH_K, grid: int = STENCIL_GRID) -> dict[str, dict]:
    """Matrix-free stencil applies vs the assembled CSR kernels (fast engine).

    The HPCG 27-point operator is box-separable, so the matrix-free apply
    runs as per-axis fused convolution sweeps with no value/index streams —
    the regime where dropping assembled storage wins even against scipy's
    compiled CSR kernels.
    """
    matrix = hpcg_matrix(grid)
    op = hpcg_operator(grid)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, op.nrows)
    x_block = rng.uniform(-1.0, 1.0, (op.nrows, k))
    entries = {}
    with use_backend("fast"):
        entries["stencil_apply"] = {
            "assembled_s": _time(lambda: matrix.matvec(x), repeats),
            "matrix_free_s": _time(lambda: op.apply(x), repeats),
        }
        entries["stencil_apply_batch"] = {
            "assembled_s": _time(lambda: matrix.matmat(x_block), repeats),
            "matrix_free_s": _time(lambda: op.apply_batch(x_block), repeats),
            "k": k,
        }
    for row in entries.values():
        row["speedup"] = round(row["assembled_s"] / row["matrix_free_s"]
                               if row["matrix_free_s"] > 0 else float("inf"), 3)
        row["grid"] = f"{grid}^3"
    return entries


def bench_fused(problem, repeats: int) -> dict[str, dict]:
    """Fused solve-plan kernels vs their unfused sequences (fast engine).

    The fp16 rows use subnormal-heavy vectors (tiny residual magnitudes, the
    steady-state regime of the inner Richardson level) — the case the staged
    float32 paths exist for.
    """
    from repro.backends import Workspace
    from repro.sparse import vectorops as vo

    matrix = problem["matrix"]
    n = problem["n"]
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, n)
    b = rng.uniform(-1.0, 1.0, n)
    entries = {}
    with use_backend("fast"):
        backend = get_backend()
        scratch = matrix.scratch()

        unfused = _time(lambda: vo.axpy(
            -1.0, matrix.matvec(x, record=False), b,
            out_precision=Precision.FP64, record=False), repeats)
        fused = _time(lambda: backend.spmv_axpy(
            matrix.values, matrix.indices, matrix.indptr, x, b,
            out_precision=Precision.FP64, record=False, scratch=scratch),
            repeats)
        entries["spmv_axpy"] = {"unfused_s": unfused, "fused_s": fused}

        ws1, ws2 = Workspace(), Workspace()
        basis1 = ws1.get("b", (3, n), np.float32)
        basis2 = ws2.get("b", (3, n), np.float32)
        v0 = rng.standard_normal(n).astype(np.float32)
        v0 /= np.linalg.norm(v0)
        basis1[0] = v0
        basis2[0] = v0
        w = rng.standard_normal(n).astype(np.float32)

        def unfused_gs():
            h, w_o, h_norm = backend.orthogonalize(basis1, 0, w.copy(),
                                                   Precision.FP32,
                                                   scratch=ws1, record=False)
            basis1[1] = vo.scal(1.0 / h_norm, w_o, record=False)

        fused = _time(lambda: backend.orthonormalize(
            basis2, 0, w.copy(), Precision.FP32, scratch=ws2, record=False),
            repeats)
        unfused = _time(unfused_gs, repeats)
        entries["orthonormalize"] = {"unfused_s": unfused, "fused_s": fused}

        # steady-state fp16 magnitudes: mostly fp16-subnormal values
        z16 = (rng.uniform(-1.0, 1.0, n) * 2e-5).astype(np.float16)
        mr16 = (rng.uniform(-1.0, 1.0, n) * 2e-5).astype(np.float16)
        ws = Workspace()
        unfused = _time(lambda: vo.axpy(0.97, mr16, z16, record=False),
                        repeats)
        fused = _time(lambda: backend.weighted_update(
            z16.copy(), mr16, 0.97, Precision.FP16, scratch=ws, record=False),
            repeats)
        entries["weighted_update_fp16"] = {"unfused_s": unfused, "fused_s": fused}

    for row in entries.values():
        row["speedup"] = round(row["unfused_s"] / row["fused_s"]
                               if row["fused_s"] > 0 else float("inf"), 3)
    return entries


def _per_call(fns, repeats: int, number: int) -> list[float]:
    """Best-of-``repeats`` mean time of one call of each of ``fns`` over
    ``number`` calls, the functions interleaved in every repeat."""
    best = [float("inf")] * len(fns)
    for fn in fns:
        fn()
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            for _ in range(number):
                fn()
            best[i] = min(best[i], (time.perf_counter() - start) / number)
    return best


def bench_dispatch(repeats: int, number: int = 2000) -> dict[str, dict]:
    """One compiled call through the ``native`` engine against the bare
    ctypes call of the same kernel on the same operands, every argument
    converted beforehand: the engine's cost per call (lookup, checks, output
    allocation, addresses, traffic record) is ``engine_s − bare_s``.  The
    operands are 729-row fp16 vectors and the fp16 ILU(0) ``L`` factor of
    the diagonally scaled HPCG 9³ matrix; counters stay on, as in a solve."""
    from repro.backends import native

    engine = get_backend("native")
    kernels = engine._half
    matrix, _ = diagonal_scaling(hpcg_matrix(DISPATCH_GRID))
    factor = TriangularFactor(ilu0_factor(matrix)[0], lower=True,
                              unit_diagonal=True).astype(Precision.FP16)
    n = matrix.nrows
    rng = np.random.default_rng(9)
    b16 = rng.uniform(-1.0, 1.0, n).astype(np.float16)
    z16 = rng.uniform(-1.0, 1.0, n).astype(np.float16)
    x16 = np.empty(n, dtype=np.float16)
    work = np.empty(n + 1, dtype=np.float32)
    alpha = np.full(1, np.float16(0.97), dtype=np.float32)
    engine.trsv(factor, b16)                       # builds the plan

    def bare(symbol, *args):
        fn = kernels[symbol]
        args = tuple(t(a) for t, a in zip(fn.argtypes, args))
        return lambda: fn(*args)

    _, nchunks, _, addrs = native._trsv_plan(factor, np.dtype(np.float16))
    addr = native._addr
    rows = {
        "trsv_fp16": (lambda: engine.trsv(factor, b16),
                      bare("trsv_f16", nchunks, *addrs, addr(b16), addr(x16), 1,
                           addr(work))),
        "weighted_update_fp16": (
            lambda: engine.weighted_update(z16, b16, 0.97, Precision.FP16),
            bare("weighted_update_f16", n, 1, addr(alpha), addr(b16), addr(z16),
                 addr(x16))),
    }
    entries = {}
    for name, (through, direct) in rows.items():
        engine_s, bare_s = _per_call((through, direct), repeats, number)
        entries[name] = {"engine_s": engine_s, "bare_s": bare_s,
                         "overhead_s": engine_s - bare_s, "n": n,
                         "isa": engine.isa}
    return entries


def bench_richardson(repeats: int, number: int = 300) -> dict[str, dict]:
    """One Richardson invocation (m = 2, one column, no weight refresh) in
    uniform fp16, fp64 and fp32: ``native``'s compiled sweep against the
    level's loop on ``fast`` (its oracle) and on ``native``'s own kernels
    (what a level runs where no sweep is bound: here M's apply is wrapped,
    which keeps the loop), interleaved, on atmosmodd ``tiny`` with its
    default block-IC(0) and on the hard operator with block-ILU(0) over 10
    blocks.  The fp16 rows keep their names; the others carry the precision
    as a suffix."""
    from repro.precision import LevelPrecision
    from repro.precond import make_primary_preconditioner

    cases = {"atmosmodd_tiny": (get_matrix("atmosmodd", "tiny"), dict(kind="auto")),
             "hard": (get_matrix(*HARD_MATRIX),
                      dict(kind="block-ilu0", nblocks=HARD_BLOCKS))}
    entries = {}
    for name, (matrix, spec) in cases.items():
        matrix, _ = diagonal_scaling(matrix)
        m64 = make_primary_preconditioner(matrix, **spec)
        for prec in (Precision.FP16, Precision.FP64, Precision.FP32):
            a = as_operator(matrix).astype(prec)
            rng = np.random.default_rng(11)
            v = rng.standard_normal((matrix.nrows, 1))
            v = (v / np.linalg.norm(v)).astype(
                np.float32 if prec is Precision.FP16 else prec.dtype)
            levels = {}
            for engine, kept in (("fast", False), ("native", False), ("native", True)):
                m = m64.astype(prec)               # a copy of its own
                if kept:
                    # a wrapper on the instance's apply keeps the loop
                    m.apply_batch = lambda r, m=m: type(m).apply_batch(m, r)
                with use_backend(engine):
                    level = levels[engine, kept] = RichardsonLevel(
                        a, m, m=2, cycle=10 ** 9,
                        precisions=LevelPrecision(prec, prec, prec))
                    level.weights[:] = (0.9, 1.1)
                    level.apply_batch(v)

            def on(engine, kept=False):
                def call():
                    with use_backend(engine):
                        return levels[engine, kept].apply_batch(v)
                return call

            loop_s, native_loop_s, sweep_s = _per_call(
                (on("fast"), on("native", True), on("native")), repeats, number)
            swept = any(sweep is not None
                        for sweep in levels["native", False]._sweeps.values())
            kept = all(sweep is None for sweep in levels["native", True]._sweeps.values())
            row = name if prec is Precision.FP16 else f"{name}_{prec.label}"
            entries[row] = {
                "precision": prec.label, "loop_s": loop_s,
                "native_loop_s": native_loop_s, "sweep_s": sweep_s, "n": matrix.nrows,
                "speedup": round(loop_s / sweep_s if sweep_s > 0 else float("inf"), 3),
                "native_loop_speedup": round(native_loop_s / sweep_s if sweep_s > 0
                                             else float("inf"), 3),
                "compiled": swept and kept,
                "bit_identical": (_same_bits(on("native")(), on("fast")())
                                  and _same_bits(on("native", True)(), on("fast")()))}
    return entries


def run(scale: str, repeats: int, m: int) -> dict:
    side = SCALES[scale]
    problem = build_problem(side)
    reference, _ = bench_backend(problem, "reference", repeats, m)
    fast, fast_out = bench_backend(problem, "fast", repeats, m)
    kernels = {}
    for name in reference:
        speedup = reference[name] / fast[name] if fast[name] > 0 else float("inf")
        kernels[name] = {
            "reference_s": reference[name],
            "fast_s": fast[name],
            "speedup": round(speedup, 3),
        }
    if "native" in available_backends():
        native, native_out = bench_backend(problem, "native", repeats, m,
                                           rows=NATIVE_ROWS)
        for name in NATIVE_ROWS:
            kernels[name].update(
                native_s=native[name],
                native_speedup=round(fast[name] / native[name]
                                     if native[name] > 0 else float("inf"), 3),
                native_bit_identical=_same_bits(native_out[name], fast_out[name]))
    batched = bench_batched_kernels(problem, repeats)
    batched["solve_batch"] = bench_solve_batch(scale)
    stencil = bench_stencil(repeats)
    fused = bench_fused(problem, repeats)
    has_native = "native" in available_backends()
    dispatch = bench_dispatch(repeats) if has_native else {}
    richardson = bench_richardson(repeats) if has_native else {}
    return {
        "scale": scale,
        "n": problem["n"],
        "nnz": problem["matrix"].nnz,
        "fgmres_m": m,
        "repeats": repeats,
        "kernels": kernels,
        "batched": batched,
        "stencil": stencil,
        "fused": fused,
        "dispatch": dispatch,
        "richardson": richardson,
    }


#: machine-drift tolerance applied under the ``baseline/factor`` floor: the
#: committed baseline is machine-dependent, and host differences (CPU
#: generation, cache sizes, container noise) routinely move individual
#: speedups 10-20% without any code change — the stencil_apply floor drift
#: documented in CHANGES.md.  A real regression at the 2x gate still trips
#: it; the band only absorbs hardware skew near the floor.
DRIFT_TOLERANCE = 0.15


def check_regressions(report: dict, baseline: dict, factor: float = 2.0,
                      tolerance: float = DRIFT_TOLERANCE) -> list[str]:
    """Speedup regressions beyond ``factor`` against the committed baseline.

    The floor for each entry is ``baseline_speedup / factor``, relaxed by
    ``tolerance`` (a fraction) to absorb cross-machine drift.
    """
    failures = []
    # speedups vary systematically with problem size and cycle length, so a
    # baseline from a different configuration would skew the gate silently
    for key in ("scale", "fgmres_m"):
        if baseline.get(key) != report.get(key):
            failures.append(f"baseline mismatch: {key}={baseline.get(key)!r} "
                            f"vs current {report.get(key)!r}; regenerate with "
                            f"--write-baseline")
    if failures:
        return failures
    for section in ("kernels", "batched", "stencil", "fused"):
        for name, base in baseline.get(section, {}).items():
            current = report.get(section, {}).get(name)
            if current is None:
                failures.append(f"{name}: missing from current run")
                continue
            floor = base["speedup"] / factor * (1.0 - tolerance)
            if current["speedup"] < floor:
                failures.append(
                    f"{name}: speedup {current['speedup']:.2f}x < {floor:.2f}x "
                    f"(baseline {base['speedup']:.2f}x / {factor:g}, "
                    f"-{tolerance:.0%} drift band)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--fgmres-m", type=int, default=30,
                        help="iterations of the timed FGMRES cycle")
    parser.add_argument("--json", type=Path, default=OUTPUT_PATH,
                        help="where to write the speedup summary")
    parser.add_argument("--check", action="store_true",
                        help="fail on >2x speedup regression vs the baseline JSON")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument("--require", type=float, default=None, metavar="X",
                        help="fail unless the FGMRES-cycle speedup >= X")
    parser.add_argument("--require-batched", type=float, default=None, metavar="X",
                        help="fail unless the solve_batch speedup >= X")
    parser.add_argument("--require-stencil", type=float, default=None, metavar="X",
                        help="fail unless the matrix-free stencil apply speedups "
                             "over the assembled kernels are >= X")
    parser.add_argument("--require-fused", type=float, default=None, metavar="X",
                        help="fail unless every fused solve-plan kernel is >= X "
                             "times its unfused sequence")
    parser.add_argument("--write-baseline", action="store_true",
                        help="overwrite the committed baseline with this run")
    args = parser.parse_args(argv)

    report = run(args.scale, args.repeats, args.fgmres_m)

    print(f"kernel engine micro-benchmarks — scale={args.scale} "
          f"(n={report['n']}, nnz={report['nnz']})")
    for name, row in report["kernels"].items():
        native = ""
        if "native_s" in row:
            native = (f"   native {row['native_s'] * 1e3:9.3f} ms "
                      f"({row['native_speedup']:.2f}x over fast, "
                      f"{'bit-identical' if row['native_bit_identical'] else 'DIFFERS'})")
        print(f"  {name:<22} reference {row['reference_s'] * 1e3:9.3f} ms   "
              f"fast {row['fast_s'] * 1e3:9.3f} ms   speedup {row['speedup']:6.2f}x"
              f"{native}")
    print(f"batched (k={BATCH_K}) vs looped — fast engine")
    for name, row in report["batched"].items():
        print(f"  {name:<14} looped    {row['looped_s'] * 1e3:9.3f} ms   "
              f"batched {row['batched_s'] * 1e3:6.3f} ms   speedup {row['speedup']:6.2f}x")
    print(f"matrix-free stencil vs assembled CSR — fast engine, "
          f"HPCG {STENCIL_GRID}^3")
    for name, row in report["stencil"].items():
        print(f"  {name:<19} assembled {row['assembled_s'] * 1e3:9.3f} ms   "
              f"matrix-free {row['matrix_free_s'] * 1e3:9.3f} ms   "
              f"speedup {row['speedup']:6.2f}x")
    print("fused solve-plan kernels vs unfused sequences — fast engine")
    for name, row in report["fused"].items():
        print(f"  {name:<21} unfused {row['unfused_s'] * 1e3:9.3f} ms   "
              f"fused {row['fused_s'] * 1e3:9.3f} ms   "
              f"speedup {row['speedup']:6.2f}x")

    if report["dispatch"]:
        print("one compiled call through the native engine vs the bare ctypes "
              f"call — {report['dispatch']['trsv_fp16']['n']} rows")
        for name, row in report["dispatch"].items():
            print(f"  {name:<21} engine {row['engine_s'] * 1e6:8.2f} us   "
                  f"bare {row['bare_s'] * 1e6:8.2f} us   "
                  f"per-call cost {row['overhead_s'] * 1e6:8.2f} us")
    if report["richardson"]:
        print("one R^m4 invocation (m = 2, k = 1): native's compiled sweep vs "
              "the level's loop on fast and on native's kernels")
        for name, row in report["richardson"].items():
            print(f"  {name:<21} loop {row['loop_s'] * 1e6:8.1f} us   "
                  f"native loop {row['native_loop_s'] * 1e6:8.1f} us   "
                  f"sweep {row['sweep_s'] * 1e6:8.1f} us   "
                  f"speedup {row['speedup']:6.2f}x / "
                  f"{row['native_loop_speedup']:5.2f}x   n={row['n']}   "
                  f"{'bit-identical' if row['bit_identical'] else 'DIFFERS'}"
                  f"{'' if row['compiled'] else '   (NOT COMPILED)'}")

    args.json.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.json}")
    if args.write_baseline:
        args.baseline.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote baseline {args.baseline}")

    status = 0
    differs = [name for name, row in report["kernels"].items()
               if row.get("native_bit_identical") is False]
    differs += [f"richardson {name}" for name, row in report["richardson"].items()
                if not row["bit_identical"]]
    if differs:
        print(f"native results differ from fast on: {', '.join(differs)}",
              file=sys.stderr)
        status = 1
    if args.check:
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}; run with --write-baseline first",
                  file=sys.stderr)
            return 2
        baseline = json.loads(args.baseline.read_text())
        failures = check_regressions(report, baseline)
        if failures:
            print("REGRESSIONS:\n  " + "\n  ".join(failures), file=sys.stderr)
            status = 1
        else:
            print("no speedup regressions vs baseline")
    if args.require is not None:
        for name in REQUIRED_KERNELS:
            speedup = report["kernels"][name]["speedup"]
            if speedup < args.require:
                print(f"REQUIREMENT FAILED: {name} speedup {speedup:.2f}x "
                      f"< {args.require:g}x", file=sys.stderr)
                status = 1
    if args.require_batched is not None:
        for name in REQUIRED_BATCHED:
            speedup = report["batched"][name]["speedup"]
            if speedup < args.require_batched:
                print(f"REQUIREMENT FAILED: {name} speedup {speedup:.2f}x "
                      f"< {args.require_batched:g}x", file=sys.stderr)
                status = 1
    if args.require_stencil is not None:
        for name in REQUIRED_STENCIL:
            speedup = report["stencil"][name]["speedup"]
            if speedup < args.require_stencil:
                print(f"REQUIREMENT FAILED: {name} speedup {speedup:.2f}x "
                      f"< {args.require_stencil:g}x", file=sys.stderr)
                status = 1
    if args.require_fused is not None:
        for name in REQUIRED_FUSED:
            speedup = report["fused"][name]["speedup"]
            if speedup < args.require_fused:
                print(f"REQUIREMENT FAILED: {name} speedup {speedup:.2f}x "
                      f"< {args.require_fused:g}x", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
