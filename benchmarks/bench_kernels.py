"""Micro-benchmarks for the kernel engine: reference vs fast backend, and
batched (multi-RHS) vs looped execution.

Times the four hot kernels — CSR SpMV, sliced-ELLPACK SpMV, level-scheduled
triangular solve, and one FGMRES(m) cycle — on both registered backends, plus
the batched kernels (CSR SpMM, batched trsm), a full ``solve_batch`` of
the fp16-F3R solver against ``k`` sequential ``solve`` calls, and the
matrix-free stencil applies (single + batched) against the assembled CSR
kernels on the HPCG 27-point operator at a 64³ grid, and emits a
``BENCH_kernels.json`` speedup summary.

Not collected by pytest (the tier-1 suite); run directly or via make:

    PYTHONPATH=src python benchmarks/bench_kernels.py --scale smoke --check
    PYTHONPATH=src python benchmarks/bench_kernels.py --scale medium \
        --require 3.0 --require-batched 3.0

``--check`` compares the measured speedups against the committed baseline
(``benchmarks/BENCH_kernels_baseline.json``) and exits non-zero when any
kernel's fast-backend (or batched-over-looped / matrix-free-over-assembled)
speedup regressed by more than 2x — speedup ratios are compared rather than
wall times so the gate is stable across machines.  ``--require X`` enforces
an absolute floor on the ELL-SpMV and FGMRES-cycle speedups (kernel-engine
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

from repro.backends import use_backend
from repro.core import F3RConfig, F3RSolver
from repro.matgen import hpcg_matrix, hpcg_operator, poisson2d
from repro.precision import Precision
from repro.precond import ilu0_factor
from repro.solvers import fgmres_cycle
from repro.sparse import SlicedEllMatrix, TriangularFactor

#: grid side of the 5-point Poisson problem per scale (n = side^2 unknowns)
SCALES = {"smoke": 90, "small": 160, "medium": 300}

#: grid side of the end-to-end ``solve_batch`` benchmark per scale (kept
#: smaller than the kernel grid: it times 8 full emulated F3R solves)
SOLVE_SCALES = {"smoke": 40, "small": 90, "medium": 300}

#: right-hand sides per batch in the batched benchmarks
BATCH_K = 8

#: grid side of the matrix-free stencil benchmark (HPCG 27-point); 64³ is the
#: operator-layer acceptance threshold — the batched matrix-free apply must
#: beat the assembled CSR SpMM at this size
STENCIL_GRID = 64

BASELINE_PATH = Path(__file__).parent / "BENCH_kernels_baseline.json"
OUTPUT_PATH = Path(__file__).parent / "BENCH_kernels.json"

#: kernels the --require floor applies to (the kernel-engine acceptance criterion)
REQUIRED_KERNELS = ("spmv_ell", "fgmres_cycle")

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
    ell = SlicedEllMatrix(matrix, chunk_size=32)
    lower, _ = ilu0_factor(matrix)
    return {"matrix": matrix, "ell": ell, "lower": lower, "x": x, "n": n}


def bench_backend(problem, backend: str, repeats: int, m: int) -> dict[str, float]:
    matrix = problem["matrix"]
    ell = problem["ell"]
    x = problem["x"]
    with use_backend(backend):
        # fresh factor per backend so plan caching is part of the measurement's
        # warmup, not carried over from the other engine
        factor = TriangularFactor(problem["lower"], lower=True, unit_diagonal=True)
        times = {
            "spmv_csr": _time(lambda: matrix.matvec(x), repeats),
            "spmv_ell": _time(lambda: ell.matvec(x), repeats),
            "trsv": _time(lambda: factor.solve(x), repeats),
            "fgmres_cycle": _time(
                lambda: fgmres_cycle(matrix, x, None, m=m, vec_prec=Precision.FP64),
                repeats, warmup=1),
        }
    return times


def bench_batched_kernels(problem, repeats: int, k: int = BATCH_K) -> dict[str, dict]:
    """Batched-vs-looped timings of SpMM and trsm on the fast engine."""
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
    from repro.backends import Workspace, get_backend
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


def run(scale: str, repeats: int, m: int) -> dict:
    side = SCALES[scale]
    problem = build_problem(side)
    reference = bench_backend(problem, "reference", repeats, m)
    fast = bench_backend(problem, "fast", repeats, m)
    kernels = {}
    for name in reference:
        speedup = reference[name] / fast[name] if fast[name] > 0 else float("inf")
        kernels[name] = {
            "reference_s": reference[name],
            "fast_s": fast[name],
            "speedup": round(speedup, 3),
        }
    batched = bench_batched_kernels(problem, repeats)
    batched["solve_batch"] = bench_solve_batch(scale)
    stencil = bench_stencil(repeats)
    fused = bench_fused(problem, repeats)
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
                        help="fail unless ELL-SpMV and FGMRES-cycle speedups >= X")
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
        print(f"  {name:<14} reference {row['reference_s'] * 1e3:9.3f} ms   "
              f"fast {row['fast_s'] * 1e3:9.3f} ms   speedup {row['speedup']:6.2f}x")
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

    args.json.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.json}")
    if args.write_baseline:
        args.baseline.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote baseline {args.baseline}")

    status = 0
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
