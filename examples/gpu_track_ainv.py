#!/usr/bin/env python3
"""GPU-track scenario: SD-AINV preconditioning, sliced ELLPACK, A100 machine model.

Reproduces the structure of the paper's Section 5.2 experiments: the primary
preconditioner is the SD-AINV approximate inverse (applied with two SpMVs, no
triangular solves), and modeled times come from the A100 node model.  The
products run on CSR here; the sliced-ELLPACK padding the GPU's storage would
add (chunk size 32) is reported beside the precision speedups for a couple
of problems.

Run with:  python examples/gpu_track_ainv.py
"""

from __future__ import annotations

import numpy as np

from repro.core import F3RConfig, build_f3r
from repro.experiments import build_problem, format_table
from repro.perf import GPU_NODE, TrafficCounter, counting, padded_entry_count

MATRICES = ["Emilia_923", "hpgmp_7_7_7"]


def main() -> None:
    rows = []
    for name in MATRICES:
        problem = build_problem(name, scale="tiny")
        preconditioner = problem.gpu_preconditioner()   # SD-AINV with αAINV scaling
        matrix = problem.matrix
        padding = padded_entry_count(matrix.row_nnz(), 32) / max(1, matrix.nnz)

        times = {}
        apps = {}
        for variant in ("fp64", "fp16"):
            solver = build_f3r(problem.matrix, preconditioner, F3RConfig(variant=variant))
            counter = TrafficCounter()
            with counting(counter):
                result = solver.solve(problem.rhs)
            times[variant] = GPU_NODE.time_for(counter)
            apps[variant] = result.preconditioner_applications

        rows.append({
            "matrix": name,
            "ellpack_padding": padding,
            "fp64_M_calls": apps["fp64"],
            "fp16_M_calls": apps["fp16"],
            "fp16_speedup_vs_fp64": times["fp64"] / times["fp16"],
        })

    print(format_table(rows, title="GPU track (SD-AINV + A100 model)", float_fmt="{:.2f}"))
    print("\nThe paper's Fig. 2 finds the same ordering (fp16-F3R fastest) with more")
    print("moderate speedups than on the CPU node; see EXPERIMENTS.md for details.")


if __name__ == "__main__":
    main()
