"""SD-AINV: simplified (stabilized) sparse approximate-inverse preconditioner.

The paper's GPU experiments use SD-AINV (Suzuki, Fukaya, Iwashita 2022), a
simplified variant of the AINV factored-approximate-inverse preconditioner
(Benzi et al. 1996) whose application needs only **two SpMVs per
preconditioning step** — no triangular solves — which is why it suits GPUs.

Paper → reproduction substitution (recorded in DESIGN.md): the original
SD-AINV constructs its factors by a stabilized bi-conjugation sweep.  Here the
factors come from a first-order Neumann expansion on the sparsity pattern of
``A`` with optional drop tolerance:

    A = D_A + L + U  (diagonal / strictly lower / strictly upper)
    Z ≈ I − D_A^{-1} U        (unit upper triangular, pattern of U)
    W ≈ I − D_A^{-1} L^T      (unit upper triangular, pattern of L^T)
    M^{-1} ≈ Z D^{-1} W^T,  D = diag(W^T A Z)

For SPD matrices ``W = Z`` and the construction reduces to the classic
truncated AINV of a diagonally dominant matrix.  What matters for the
reproduction — an approximate inverse stored explicitly and applied through
two SpMVs, constructed in fp64 with αAINV diagonal scaling and then cast to
fp32/fp16 — is preserved exactly.
"""

from __future__ import annotations

import numpy as np

from ..backends.base import columns, per_row
from ..perf.counters import kernel_traffic
from ..perf.counters import record as record_traffic
from ..precision import Precision, as_precision, precision_of_dtype, promote
from ..sparse import CSRMatrix, scale_diagonal_entries, split_triangular
from .base import Preconditioner

__all__ = ["SDAINVPreconditioner"]


def _drop_small(matrix: CSRMatrix, drop_tol: float) -> CSRMatrix:
    """Remove entries smaller than ``drop_tol`` times the row's max magnitude."""
    if drop_tol <= 0.0 or matrix.nnz == 0:
        return matrix
    n = matrix.nrows
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(matrix.indptr))
    vals = matrix.values.astype(np.float64)
    row_max = np.zeros(n, dtype=np.float64)
    np.maximum.at(row_max, rows, np.abs(vals))
    keep = np.abs(vals) >= drop_tol * np.maximum(row_max[rows], 1e-300)
    new_indptr = np.zeros(n + 1, dtype=np.int32)
    np.add.at(new_indptr, rows[keep] + 1, 1)
    np.cumsum(new_indptr, out=new_indptr)
    return CSRMatrix(vals[keep], matrix.indices[keep], new_indptr, matrix.shape)


def _add_identity(matrix: CSRMatrix) -> CSRMatrix:
    """Return I + matrix in CSR form (fp64)."""
    coo = matrix.to_coo()
    n = matrix.nrows
    rows = np.concatenate([coo.rows, np.arange(n, dtype=np.int32)])
    cols = np.concatenate([coo.cols, np.arange(n, dtype=np.int32)])
    vals = np.concatenate([coo.values, np.ones(n)])
    from ..sparse import COOMatrix

    return COOMatrix(rows, cols, vals, matrix.shape).to_csr()


class SDAINVPreconditioner(Preconditioner):
    """Simplified AINV preconditioner applied via two sparse matrix-vector products.

    Parameters
    ----------
    matrix:
        The (diagonally scaled) coefficient matrix.
    alpha:
        αAINV diagonal scaling applied during construction only (Table 2).
    drop_tol:
        Relative drop tolerance for the approximate-inverse factors.
    symmetric:
        If ``True`` (or detected), only one factor ``Z`` is stored and
        ``M^{-1} = Z D^{-1} Z^T``.
    """

    def __init__(self, matrix: CSRMatrix, alpha: float = 1.0, drop_tol: float = 0.0,
                 symmetric: bool | None = None,
                 precision: Precision | str = Precision.FP64) -> None:
        super().__init__(precision)
        if matrix.nrows != matrix.ncols:
            raise ValueError("SD-AINV requires a square matrix")
        self._n = matrix.nrows
        self.alpha = float(alpha)
        self.drop_tol = float(drop_tol)

        work = scale_diagonal_entries(matrix, alpha) if alpha != 1.0 else matrix
        lower, diag, upper = split_triangular(work)
        if symmetric is None:
            symmetric = matrix.is_symmetric(tol=1e-10)
        self.symmetric = bool(symmetric)

        inv_diag = np.where(diag != 0.0, 1.0 / np.where(diag == 0.0, 1.0, diag), 1.0)

        def _scaled_neumann(strict: CSRMatrix) -> CSRMatrix:
            scaled = CSRMatrix((-strict.values.astype(np.float64)
                                * inv_diag[np.repeat(np.arange(self._n), np.diff(strict.indptr))]),
                               strict.indices.copy(), strict.indptr.copy(), strict.shape)
            return _add_identity(_drop_small(scaled, drop_tol))

        z64 = _scaled_neumann(upper)
        self._z = z64.astype(self.precision)
        self._zt = z64.transpose().astype(self.precision)
        if self.symmetric:
            self._w = None
            self._wt = None
        else:
            w64 = _scaled_neumann(lower.transpose())
            self._w = w64.astype(self.precision)
            self._wt = w64.transpose().astype(self.precision)

        # Middle diagonal D: to first order in the Neumann expansion,
        # diag(W^T A Z) equals diag(A), so the scaled matrix's diagonal is used.
        self._inv_d64 = inv_diag
        self._inv_d = inv_diag.astype(self.precision.dtype)

    @classmethod
    def _from_parts(cls, z, zt, w, wt, inv_d64, symmetric, alpha, drop_tol, precision, n):
        obj = object.__new__(cls)
        Preconditioner.__init__(obj, precision)
        obj._n = n
        obj.alpha = alpha
        obj.drop_tol = drop_tol
        obj.symmetric = symmetric
        obj._z = z
        obj._zt = zt
        obj._w = w
        obj._wt = wt
        obj._inv_d64 = inv_d64
        obj._inv_d = inv_d64.astype(precision.dtype)
        return obj

    # ------------------------------------------------------------------ #
    def _apply(self, r: np.ndarray) -> np.ndarray:
        vec_prec = precision_of_dtype(r.dtype)
        compute = promote(self.precision, vec_prec)
        k = columns(r)
        wt = self._zt if self.symmetric else self._wt
        t = wt @ r                             # first SpMV
        t = (t.astype(compute.dtype)
             * per_row(self._inv_d.astype(compute.dtype), r.ndim)).astype(r.dtype)
        p, size = self.precision, k * self._n
        record_traffic(kernel_traffic("precond_ainv_scale", k, ((p, size * p.bytes),),
                                      ((compute, size),)))
        z = self._z @ t                        # second SpMV
        return z.astype(r.dtype, copy=False)

    def astype(self, precision: Precision | str) -> "SDAINVPreconditioner":
        p = as_precision(precision)
        return SDAINVPreconditioner._from_parts(
            self._z.astype(p), self._zt.astype(p),
            None if self._w is None else self._w.astype(p),
            None if self._wt is None else self._wt.astype(p),
            self._inv_d64, self.symmetric, self.alpha, self.drop_tol, p, self._n,
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    def memory_bytes(self) -> int:
        total = self._z.nnz + (0 if self._w is None else self._w.nnz) + self._n
        return total * self.precision.bytes
