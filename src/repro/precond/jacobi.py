"""Jacobi (diagonal) preconditioner.

Not used as the primary preconditioner in the paper's experiments (its
matrices are diagonally scaled, so Jacobi degenerates to the identity), but it
is the simplest preconditioner with nontrivial stored values and therefore the
reference case for precision-casting tests and the quickstart example.
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..backends.base import columns
from ..backends.workspace import ScratchOwner
from ..perf.counters import kernel_traffic
from ..perf.counters import record as record_traffic
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
        self._scratch = None

    @classmethod
    def _from_inv_diag(cls, inv_diag: np.ndarray, precision: Precision) -> "JacobiPreconditioner":
        obj = object.__new__(cls)
        Preconditioner.__init__(obj, precision)
        obj._n = inv_diag.size
        obj.inv_diag = inv_diag.astype(precision.dtype)
        obj._scratch = None
        return obj

    def _apply(self, r: np.ndarray) -> np.ndarray:
        vec_prec = precision_of_dtype(r.dtype)
        k = columns(r)
        z = get_backend().diag_scale(self.inv_diag, r, record=False,
                                     scratch=self.scratch())
        p, size = self.precision, k * self._n
        record_traffic(kernel_traffic(
            "precond_jacobi", k, ((p, size * p.bytes), (vec_prec, 2 * size * vec_prec.bytes)),
            ((promote(p, vec_prec), size),)))
        return z

    def astype(self, precision: Precision | str) -> "JacobiPreconditioner":
        p = as_precision(precision)
        return JacobiPreconditioner._from_inv_diag(self.inv_diag, p)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    def memory_bytes(self) -> int:
        return self._n * self.precision.bytes
