"""ILU(0) and IC(0) incomplete factorizations.

The CPU experiments of the paper use block-Jacobi ILU(0) (IC(0) for symmetric
matrices) as the primary preconditioner ``M``, constructed in fp64 with the
diagonal of ``A`` scaled by a problem-dependent factor αILU during the
factorization only, then optionally cast to fp32/fp16 for storage.

The factorization keeps the sparsity pattern of ``A`` (zero fill-in) and uses
the standard IKJ ordering with a dense scatter workspace per row.  The
resulting unit-lower factor ``L`` and upper factor ``U`` are applied through
level-scheduled triangular solves (:class:`repro.sparse.TriangularFactor`).

For symmetric positive definite matrices ILU(0) satisfies ``U = D L^T`` on the
symmetric pattern, so IC(0) is realized by storing only ``L`` and ``D`` and
applying ``M^{-1} = L^{-T} D^{-1} L^{-1}`` — halving the stored values and
therefore the preconditioner's memory traffic, as in the paper.
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..precision import Precision, as_precision
from ..sparse import CSRMatrix, TriangularFactor
from .base import Preconditioner

__all__ = ["ilu0_factor", "ILU0Preconditioner", "IC0Preconditioner",
           "triangular_apply"]


def ilu0_factor(matrix: CSRMatrix, alpha: float = 1.0,
                breakdown_shift: float = 1e-12) -> tuple[CSRMatrix, CSRMatrix]:
    """Compute the ILU(0) factorization ``A ≈ L U`` on the pattern of ``A``.

    Parameters
    ----------
    matrix:
        Square CSR matrix.  The factorization always runs in fp64.
    alpha:
        αILU diagonal scaling applied to the matrix *during factorization only*
        (the paper's stabilization for block-Jacobi ILU(0)).
    breakdown_shift:
        If a pivot becomes zero (or loses its sign catastrophically) it is
        replaced by ``breakdown_shift * max|A|`` to avoid breakdown, following
        common practice for low-precision-adjacent incomplete factorizations.

    Returns
    -------
    (L, U):
        ``L`` is unit lower triangular (unit diagonal not stored); ``U`` is
        upper triangular including the diagonal.  Both are fp64 CSR matrices on
        subsets of A's pattern.  The elimination itself runs in the active
        kernel backend (IKJ scatter loops on ``reference``, compact row-segment
        updates on ``fast``); both produce the same factors.

    With ``REPRO_ARTIFACTS`` set, the factor arrays persist on disk keyed by
    ``(matrix fingerprint, alpha, breakdown_shift)`` — the key omits the
    backend because the backends' bit-identity contract (enforced by the
    equivalence suite) makes the factors backend-independent.  A warm cache
    skips the elimination entirely on process restart.
    """
    from ..cache import (artifact_key, artifacts_enabled, load_arrays,
                         store_arrays)

    if not artifacts_enabled():
        return get_backend().ilu0_factor(matrix, alpha=alpha,
                                         breakdown_shift=breakdown_shift)

    key = artifact_key("ilu0", matrix.fingerprint(), float(alpha),
                       float(breakdown_shift))
    cached = load_arrays("ilu0", key)
    if cached is not None:
        factors = _factors_from_arrays(cached, matrix.nrows)
        if factors is not None:
            return factors

    from time import perf_counter
    start = perf_counter()
    lower, upper = get_backend().ilu0_factor(matrix, alpha=alpha,
                                             breakdown_shift=breakdown_shift)
    cost_ms = (perf_counter() - start) * 1e3
    store_arrays("ilu0", key, {
        "l_values": lower.values, "l_indices": lower.indices,
        "l_indptr": lower.indptr,
        "u_values": upper.values, "u_indices": upper.indices,
        "u_indptr": upper.indptr,
    }, cost_ms=cost_ms)
    return lower, upper


def _factors_from_arrays(arrays: dict, n: int) -> tuple[CSRMatrix, CSRMatrix] | None:
    """Rebuild ``(L, U)`` from a cached payload; ``None`` if it is unusable."""
    try:
        lower = CSRMatrix(arrays["l_values"], arrays["l_indices"],
                          arrays["l_indptr"], (n, n))
        upper = CSRMatrix(arrays["u_values"], arrays["u_indices"],
                          arrays["u_indptr"], (n, n))
    except Exception:
        return None
    return lower, upper


def triangular_apply(lower: TriangularFactor, scale: np.ndarray | None,
                     upper: TriangularFactor, r: np.ndarray) -> np.ndarray:
    """``U^{-1} D L^{-1} r`` for a vector or an ``(n, k)`` block ``r``: the
    two substitutions with the engine's (unrecorded) diagonal scaling by
    ``scale`` between them, rounded to ``r``'s dtype, or none when it is
    ``None`` — the application a
    :meth:`~repro.precond.Preconditioner.triangular_form` describes (IC(0):
    ``U = L^T``, ``D`` its inverse pivots)."""
    y = lower.solve(r)
    if scale is not None:
        y = get_backend().diag_scale(scale, y, record=False)
    return upper.solve(y)


class ILU0Preconditioner(Preconditioner):
    """ILU(0) preconditioner: ``M^{-1} r = U^{-1} (L^{-1} r)``.

    Construction is always in fp64; :meth:`astype` casts the stored factor
    values to fp32/fp16 afterwards, exactly mirroring the paper's procedure.
    """

    def __init__(self, matrix: CSRMatrix, alpha: float = 1.0,
                 precision: Precision | str = Precision.FP64) -> None:
        super().__init__(precision)
        self.alpha = float(alpha)
        self._n = matrix.nrows
        lower, upper = ilu0_factor(matrix, alpha=alpha)
        p = self.precision
        self._lower = TriangularFactor(lower.astype(p), lower=True, unit_diagonal=True)
        self._upper = TriangularFactor(upper.astype(p), lower=False, unit_diagonal=False)

    @classmethod
    def _from_factors(cls, lower: TriangularFactor, upper: TriangularFactor,
                      alpha: float, precision: Precision) -> "ILU0Preconditioner":
        obj = object.__new__(cls)
        Preconditioner.__init__(obj, precision)
        obj.alpha = alpha
        obj._n = lower.nrows
        obj._lower = lower
        obj._upper = upper
        return obj

    def _apply(self, r: np.ndarray) -> np.ndarray:
        return triangular_apply(self._lower, None, self._upper, r)

    def triangular_form(self):
        return self._lower, None, self._upper

    def astype(self, precision: Precision | str) -> "ILU0Preconditioner":
        p = as_precision(precision)
        return ILU0Preconditioner._from_factors(
            self._lower.astype(p), self._upper.astype(p), self.alpha, p
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    def memory_bytes(self) -> int:
        nnz = self._lower.off_vals.size + self._upper.off_vals.size + self._n
        return nnz * self.precision.bytes


class IC0Preconditioner(Preconditioner):
    """IC(0)-style preconditioner for symmetric matrices.

    Uses the ILU(0) factors (for an SPD matrix, ``U = D L^T`` on the symmetric
    pattern) but stores only ``L`` and the pivot diagonal ``D``:
    ``M^{-1} r = L^{-T} D^{-1} L^{-1} r``.  Storage and memory traffic are
    therefore roughly half of ILU(0), matching the symmetric rows of the
    paper's experiments.
    """

    def __init__(self, matrix: CSRMatrix, alpha: float = 1.0,
                 precision: Precision | str = Precision.FP64) -> None:
        super().__init__(precision)
        self.alpha = float(alpha)
        self._n = matrix.nrows
        lower, upper = ilu0_factor(matrix, alpha=alpha)
        from ..sparse import extract_diagonal

        diag = extract_diagonal(upper)
        p = self.precision
        self._lower = TriangularFactor(lower.astype(p), lower=True, unit_diagonal=True)
        # L^T for the backward solve: transpose of the strictly-lower factor
        upper_t = lower.transpose()
        self._upper_t = TriangularFactor(upper_t.astype(p), lower=False, unit_diagonal=True)
        self._inv_diag64 = np.where(diag != 0.0, 1.0 / np.where(diag == 0.0, 1.0, diag), 0.0)
        self._inv_diag = self._inv_diag64.astype(p.dtype)

    @classmethod
    def _from_parts(cls, lower, upper_t, inv_diag64, alpha, precision) -> "IC0Preconditioner":
        obj = object.__new__(cls)
        Preconditioner.__init__(obj, precision)
        obj.alpha = alpha
        obj._n = lower.nrows
        obj._lower = lower
        obj._upper_t = upper_t
        obj._inv_diag64 = inv_diag64
        obj._inv_diag = inv_diag64.astype(precision.dtype)
        return obj

    def _apply(self, r: np.ndarray) -> np.ndarray:
        return triangular_apply(self._lower, self._inv_diag, self._upper_t, r)

    def triangular_form(self):
        return self._lower, self._inv_diag, self._upper_t

    def astype(self, precision: Precision | str) -> "IC0Preconditioner":
        p = as_precision(precision)
        return IC0Preconditioner._from_parts(
            self._lower.astype(p), self._upper_t.astype(p), self._inv_diag64, self.alpha, p
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    def memory_bytes(self) -> int:
        nnz = self._lower.off_vals.size + self._n
        return nnz * self.precision.bytes
