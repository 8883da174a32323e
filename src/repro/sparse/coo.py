"""Coordinate (COO) sparse matrix container.

COO is the assembly format: the matrix generators in :mod:`repro.matgen` emit
triplets, which are then converted to CSR for the solver kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["COOMatrix"]


@dataclass
class COOMatrix:
    """Sparse matrix in coordinate format.

    Duplicate entries are allowed at construction and summed by
    :meth:`to_csr` / :meth:`sum_duplicates`, matching the usual finite-element
    assembly convention.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int32)
        self.cols = np.asarray(self.cols, dtype=np.int32)
        self.values = np.asarray(self.values, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.values.shape):
            raise ValueError("rows, cols and values must have the same length")
        nrows, ncols = self.shape
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= nrows:
                raise ValueError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= ncols:
                raise ValueError("column index out of range")

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def sum_duplicates(self) -> "COOMatrix":
        """Return an equivalent COO matrix with duplicate (i, j) entries summed."""
        if self.nnz == 0:
            return COOMatrix(self.rows, self.cols, self.values, self.shape)
        ncols = self.shape[1]
        keys = self.rows.astype(np.int64) * ncols + self.cols.astype(np.int64)
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        vals_sorted = self.values[order]
        unique_mask = np.empty(keys_sorted.size, dtype=bool)
        unique_mask[0] = True
        np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=unique_mask[1:])
        group_starts = np.flatnonzero(unique_mask)
        summed = np.add.reduceat(vals_sorted, group_starts)
        unique_keys = keys_sorted[group_starts]
        rows = (unique_keys // ncols).astype(np.int32)
        cols = (unique_keys % ncols).astype(np.int32)
        return COOMatrix(rows, cols, summed, self.shape)

    def to_csr(self):
        """Convert to :class:`repro.sparse.csr.CSRMatrix` (duplicates summed)."""
        from .csr import CSRMatrix

        dedup = self.sum_duplicates()
        nrows = self.shape[0]
        order = np.lexsort((dedup.cols, dedup.rows))
        rows = dedup.rows[order]
        cols = dedup.cols[order]
        vals = dedup.values[order]
        indptr = np.zeros(nrows + 1, dtype=np.int32)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(vals, cols, indptr, self.shape)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        np.add.at(dense, (self.rows, self.cols), self.values)
        return dense

    def transpose(self) -> "COOMatrix":
        return COOMatrix(self.cols.copy(), self.rows.copy(), self.values.copy(),
                         (self.shape[1], self.shape[0]))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(dense)
        return cls(rows.astype(np.int32), cols.astype(np.int32), dense[rows, cols], dense.shape)
