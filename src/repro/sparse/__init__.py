"""Sparse-matrix substrate: storage formats, SpMV, triangular solves, vector kernels."""

from .coo import COOMatrix
from .csr import CSRMatrix, spmv_csr
from .blocking import BlockPartition, partition_rows
from .triangular import (
    TriangularFactor,
    compute_levels,
    fuse_block_diagonal,
    solve_lower,
    solve_upper,
)
from .ops import (
    apply_diagonal_scaling,
    diagonal_scaling,
    extract_diagonal,
    frobenius_norm,
    max_abs,
    residual_norm,
    scale_diagonal_entries,
    split_triangular,
)
from .io import read_matrix_market, write_matrix_market
from . import vectorops

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "spmv_csr",
    "BlockPartition",
    "partition_rows",
    "TriangularFactor",
    "compute_levels",
    "fuse_block_diagonal",
    "solve_lower",
    "solve_upper",
    "apply_diagonal_scaling",
    "diagonal_scaling",
    "extract_diagonal",
    "frobenius_norm",
    "max_abs",
    "residual_norm",
    "scale_diagonal_entries",
    "split_triangular",
    "read_matrix_market",
    "write_matrix_market",
    "vectorops",
]
