"""Composite operators: diagonal shifts and diagonal scalings of a base operator.

The paper diagonally scales every test matrix before solving; with assembled
storage that is a one-off re-assembly, but a matrix-free operator cannot be
"re-assembled".  :class:`ScaledOperator` applies
``diag(row_scale) @ A @ diag(col_scale)`` compositionally — two elementwise
multiplies around the base apply — and :class:`ShiftedOperator` adds
``shift * I`` (regularization / time-stepping shifts) the same way.

Precision semantics: the component operations each follow the usual rules
(base apply in the promoted precision, the diagonal multiply in the promotion
of the scale and vector precisions, result rounded to the requested output
precision).  Composites therefore agree with an assembled equivalent to
rounding tolerance, not bitwise — the shift/scale is applied to the *product*,
not folded into pre-rounded stored entries.
"""

from __future__ import annotations

import numpy as np

from ..precision import Precision, as_precision, precision_of_dtype
from ..sparse import vectorops as vo
from .base import LinearOperator, as_operator, derived_fingerprint

__all__ = ["ShiftedOperator", "ScaledOperator"]


class ShiftedOperator(LinearOperator):
    """``A + shift * I`` without touching ``A``'s storage."""

    def __init__(self, base, shift: float) -> None:
        self.base = as_operator(base)
        if self.base.nrows != self.base.ncols:
            raise ValueError("ShiftedOperator requires a square base operator")
        self.shift = float(shift)
        self.shape = self.base.shape
        self._astype_cache: dict[Precision, "ShiftedOperator"] = {}

    @property
    def dtype(self) -> np.dtype:
        return self.base.dtype

    @property
    def nnz_per_row(self) -> float:
        # estimate: the diagonal is structurally present in every shipped base
        return self.base.nnz_per_row

    def apply(self, x, out_precision=None, record: bool = True):
        x = self._validate_vector(x)
        out = (as_precision(out_precision) if out_precision is not None
               else precision_of_dtype(x.dtype))
        y = self.base.apply(x, out_precision=out_precision, record=record)
        return vo.axpy(self.shift, x, y, out_precision=out, record=record)

    def apply_batch(self, x, out_precision=None, record: bool = True):
        x = self._validate_block(x)
        out = (as_precision(out_precision) if out_precision is not None
               else precision_of_dtype(x.dtype))
        y = self.base.apply_batch(x, out_precision=out_precision, record=record)
        return vo.axpy(self.shift, x, y, out_precision=out, record=record)

    def diagonal(self) -> np.ndarray:
        return self.base.diagonal() + self.shift

    def fingerprint(self) -> str:
        return derived_fingerprint(self.base.fingerprint(), "shifted",
                                   repr(self.shift))

    def astype(self, precision) -> "ShiftedOperator":
        p = as_precision(precision)
        if p == self.precision:
            return self
        cached = self._astype_cache.get(p)
        if cached is None:
            cached = self._astype_cache[p] = ShiftedOperator(self.base.astype(p),
                                                             self.shift)
        return cached

    def memory_bytes(self) -> int:
        return self.base.memory_bytes()

    def apply_traffic_constant(self, value_precision=Precision.FP64) -> float:
        # the shift adds one scalar, not a per-row stream
        return self.base.apply_traffic_constant(value_precision)

    def assembled_entries(self):
        """``A + shift*I`` materialized when the base has entries — keeps
        factorization preconditioners available for shifted assembled systems."""
        base = self.base.assembled_entries()
        if base is None:
            return None
        import scipy.sparse as sp

        from ..sparse.csr import CSRMatrix

        shifted = base.to_scipy() + self.shift * sp.identity(base.nrows,
                                                             format="csr")
        return CSRMatrix.from_scipy(shifted)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShiftedOperator({self.base!r}, shift={self.shift:g})"


class ScaledOperator(LinearOperator):
    """``diag(row_scale) @ A @ diag(col_scale)`` applied compositionally.

    ``row_scale=None`` / ``col_scale=None`` mean the identity on that side;
    symmetric diagonal scaling passes the same vector for both (the
    matrix-free analogue of :func:`repro.sparse.diagonal_scaling`).
    """

    def __init__(self, base, row_scale=None, col_scale=None) -> None:
        self.base = as_operator(base)
        self.shape = self.base.shape
        self.row_scale = (None if row_scale is None
                          else np.asarray(row_scale, dtype=np.float64))
        self.col_scale = (None if col_scale is None
                          else np.asarray(col_scale, dtype=np.float64))
        if self.row_scale is not None and self.row_scale.shape != (self.nrows,):
            raise ValueError(f"row_scale must have shape ({self.nrows},)")
        if self.col_scale is not None and self.col_scale.shape != (self.ncols,):
            raise ValueError(f"col_scale must have shape ({self.ncols},)")
        self._astype_cache: dict[Precision, "ScaledOperator"] = {}
        self._fingerprint: str | None = None

    @classmethod
    def symmetric(cls, base, scale) -> "ScaledOperator":
        """``diag(s) @ A @ diag(s)`` — e.g. ``s = 1/sqrt(|diag(A)|)``."""
        return cls(base, row_scale=scale, col_scale=scale)

    @property
    def dtype(self) -> np.dtype:
        return self.base.dtype

    @property
    def nnz_per_row(self) -> float:
        return self.base.nnz_per_row

    def _apply_common(self, x, out_precision, record, batched: bool):
        out = (as_precision(out_precision) if out_precision is not None
               else precision_of_dtype(x.dtype))
        if self.col_scale is not None:
            x = vo.diagmul(self.col_scale, x, record=record)
        base_apply = self.base.apply_batch if batched else self.base.apply
        y = base_apply(x, out_precision=out_precision, record=record)
        if self.row_scale is not None:
            y = vo.diagmul(self.row_scale, y, out_precision=out, record=record)
        return y.astype(out.dtype, copy=False)

    def apply(self, x, out_precision=None, record: bool = True):
        return self._apply_common(self._validate_vector(x), out_precision, record,
                                  batched=False)

    def apply_batch(self, x, out_precision=None, record: bool = True):
        return self._apply_common(self._validate_block(x), out_precision, record,
                                  batched=True)

    def diagonal(self) -> np.ndarray:
        diag = self.base.diagonal()
        if self.row_scale is not None:
            diag = diag * self.row_scale
        if self.col_scale is not None:
            diag = diag * self.col_scale
        return diag

    def fingerprint(self) -> str:
        fp = self._fingerprint
        if fp is None:
            import hashlib

            h = hashlib.blake2b(digest_size=16)
            h.update(repr((self.base.fingerprint(), "scaled",
                           self.row_scale is None, self.col_scale is None)).encode())
            if self.row_scale is not None:
                h.update(self.row_scale.tobytes())
            if self.col_scale is not None:
                h.update(self.col_scale.tobytes())
            fp = self._fingerprint = h.hexdigest()
        return fp

    def astype(self, precision) -> "ScaledOperator":
        p = as_precision(precision)
        if p == self.precision:
            return self
        cached = self._astype_cache.get(p)
        if cached is None:
            cached = self._astype_cache[p] = ScaledOperator(
                self.base.astype(p), self.row_scale, self.col_scale)
        return cached

    def memory_bytes(self) -> int:
        extra = sum(s.nbytes for s in (self.row_scale, self.col_scale)
                    if s is not None)
        return self.base.memory_bytes() + extra

    def apply_traffic_constant(self, value_precision=Precision.FP64) -> float:
        # each active scale vector adds one fp64 word per row per apply
        scales = ((self.row_scale is not None) + (self.col_scale is not None))
        return self.base.apply_traffic_constant(value_precision) + float(scales)

    def assembled_entries(self):
        """``diag(r) A diag(c)`` materialized when the base has entries."""
        base = self.base.assembled_entries()
        if base is None:
            return None
        from ..sparse.ops import apply_diagonal_scaling

        return apply_diagonal_scaling(
            base,
            self.row_scale if self.row_scale is not None else np.ones(self.nrows),
            self.col_scale if self.col_scale is not None else np.ones(self.ncols))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sides = (("row" if self.row_scale is not None else "-")
                 + "/" + ("col" if self.col_scale is not None else "-"))
        return f"ScaledOperator({self.base!r}, scaled={sides})"
