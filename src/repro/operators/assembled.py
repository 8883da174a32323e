"""Assembled-storage operator: a CSR matrix behind the operator contract.

Wraps a :class:`~repro.sparse.CSRMatrix` behind the
:class:`~repro.operators.LinearOperator` contract.  Every apply runs the
active engine's CSR product on it, so the same operator stores the same way,
and a solve gives the same bits, on every engine and in every process.  The
wrapper adds no mutability: everything is derived from the immutable CSR
source, and precision casts are cached per target precision.
"""

from __future__ import annotations

import numpy as np

from ..precision import Precision, as_precision
from .base import LinearOperator

__all__ = ["AssembledOperator"]


class AssembledOperator(LinearOperator):
    """A CSR-backed operator."""

    def __init__(self, matrix) -> None:
        from ..sparse.csr import CSRMatrix

        if not isinstance(matrix, CSRMatrix):
            raise TypeError("AssembledOperator wraps a CSRMatrix; "
                            f"got {type(matrix).__name__}")
        self.csr = matrix
        self.shape = matrix.shape
        self._astype_cache: dict[Precision, "AssembledOperator"] = {}

    # ------------------------------------------------------------------ #
    @property
    def dtype(self) -> np.dtype:
        return self.csr.values.dtype

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def nnz_per_row(self) -> float:
        return self.csr.nnz_per_row

    def diagonal(self) -> np.ndarray:
        return self.csr.diagonal()

    def fingerprint(self) -> str:
        return self.csr.fingerprint()

    def memory_bytes(self) -> int:
        return self.csr.memory_bytes()

    def assembled_entries(self):
        return self.csr

    # ------------------------------------------------------------------ #
    def apply(self, x, out_precision=None, record: bool = True):
        x = self._validate_vector(x)
        return self.csr.matvec(x, out_precision=out_precision, record=record)

    def apply_batch(self, x, out_precision=None, record: bool = True):
        x = self._validate_block(x)
        return self.csr.matmat(x, out_precision=out_precision, record=record)

    # ------------------------------------------------------------------ #
    def astype(self, precision) -> "AssembledOperator":
        p = as_precision(precision)
        if p == self.precision:
            return self
        cached = self._astype_cache.get(p)
        if cached is None:
            # CSRMatrix.astype threads the cached fingerprint through, so the
            # cast copy's dispatcher key derives in O(1)
            cached = AssembledOperator(self.csr.astype(p))
            self._astype_cache[p] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AssembledOperator(shape={self.shape}, nnz={self.nnz}, "
                f"precision={self.precision.label})")
