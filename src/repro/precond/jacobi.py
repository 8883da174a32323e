"""Jacobi (diagonal) preconditioner.

Not used as the primary preconditioner in the paper's experiments (its
matrices are diagonally scaled, so Jacobi degenerates to the identity), but it
is the simplest preconditioner with nontrivial stored values and therefore the
reference case for precision-casting tests and the quickstart example.
"""

from __future__ import annotations

import numpy as np

from ..backends import halfvec
from ..backends.base import columns, per_row
from ..backends.workspace import ScratchOwner
from ..perf.counters import record_bytes, record_flops, record_kernel
from ..precision import Precision, as_precision, precision_of_dtype, promote
from ..sparse import extract_diagonal
from .base import Preconditioner

__all__ = ["JacobiPreconditioner"]


class JacobiPreconditioner(Preconditioner, ScratchOwner):
    """``M = diag(A)``; application is an element-wise multiply by 1/diag.

    ``matrix`` may be an assembled :class:`CSRMatrix` or any operator with a
    ``diagonal()`` method — this is the fallback primary preconditioner for
    matrix-free solves, where factorization-based preconditioners have no
    entries to work on.
    """

    def __init__(self, matrix, precision: Precision | str = Precision.FP64) -> None:
        super().__init__(precision)
        diag = np.asarray(matrix.diagonal() if hasattr(matrix, "diagonal")
                          else extract_diagonal(matrix), dtype=np.float64)
        if np.any(diag == 0.0):
            raise ValueError("Jacobi preconditioner requires a zero-free diagonal")
        self._n = matrix.nrows
        self.inv_diag = (1.0 / diag).astype(self.precision.dtype)
        self._inv_casts: dict = {}
        self._scratch = None

    @classmethod
    def _from_inv_diag(cls, inv_diag: np.ndarray, precision: Precision) -> "JacobiPreconditioner":
        obj = object.__new__(cls)
        Preconditioner.__init__(obj, precision)
        obj._n = inv_diag.size
        obj.inv_diag = inv_diag.astype(precision.dtype)
        obj._inv_casts = {}
        obj._scratch = None
        return obj

    def _cast_inv(self, dtype) -> np.ndarray:
        """``inv_diag`` in the compute dtype (cached — it never mutates)."""
        cached = self._inv_casts.get(dtype)
        if cached is None:
            cached = self._inv_casts[dtype] = self.inv_diag.astype(dtype, copy=False)
        return cached

    def _scaled(self, r: np.ndarray, compute) -> np.ndarray:
        """``r ∘ inv_diag`` in the compute dtype (vector or ``(n, k)`` block).

        The fp16 product is staged through fp32 — one SIMD multiply rounded
        by the same conversion the fp16 ufunc applies per element, so the
        result is bit-identical to the direct fp16 multiply.
        """
        cdtype = compute.dtype
        if np.dtype(cdtype) == halfvec.HALF:
            ws = self.scratch()
            inv32 = self._cast_inv(halfvec.STAGE)
            r32 = halfvec.upcast(r, ws.get("jacobi_r32", r.shape, halfvec.STAGE),
                                 scratch=ws)
            return halfvec.binop_round(np.multiply, r32, per_row(inv32, r.ndim),
                                       scratch=ws)
        return r.astype(cdtype, copy=False) * per_row(self._cast_inv(cdtype), r.ndim)

    def _apply(self, r: np.ndarray) -> np.ndarray:
        vec_prec = precision_of_dtype(r.dtype)
        compute = promote(self.precision, vec_prec)
        k = columns(r)
        z = self._scaled(r, compute)
        record_kernel("precond_jacobi", k)
        record_bytes(self.precision, k * self._n * self.precision.bytes)
        record_bytes(vec_prec, 2 * k * self._n * vec_prec.bytes)
        record_flops(compute, k * self._n)
        return z.astype(vec_prec.dtype, copy=False)

    def astype(self, precision: Precision | str) -> "JacobiPreconditioner":
        p = as_precision(precision)
        return JacobiPreconditioner._from_inv_diag(self.inv_diag, p)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    def memory_bytes(self) -> int:
        return self._n * self.precision.bytes
