"""Preconditioner interface.

A preconditioner approximates ``M ≈ A`` and exposes ``apply(r) ≈ M^{-1} r``.
Two aspects matter for the reproduction:

* **Precision** — the paper constructs every preconditioner in fp64 and then
  casts its stored values to fp32 or fp16 (:meth:`Preconditioner.astype`), and
  the application kernels run in the stored precision.
* **Application counting** — the paper's Table 3 reports the number of
  invocations of the *primary* preconditioner ``M`` until convergence, which
  is the precision-independent measure of convergence speed for nested
  solvers.  Every ``apply`` increments :attr:`Preconditioner.num_applications`.
"""

from __future__ import annotations

import abc

import numpy as np

from ..precision import Precision, as_precision

__all__ = ["Preconditioner", "IdentityPreconditioner"]


class Preconditioner(abc.ABC):
    """Abstract base class for all primary preconditioners."""

    def __init__(self, precision: Precision | str = Precision.FP64) -> None:
        self.precision = as_precision(precision)
        self.num_applications = 0

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _apply(self, r: np.ndarray) -> np.ndarray:
        """Implementation hook: return ``M^{-1} r`` (no counting).

        ``r`` is a vector or an ``(n, k)`` block with one residual per
        column; a block's result equals ``k`` vector applications, column
        by column, bit for bit, with their counter totals.
        """

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Apply the preconditioner and count the invocation."""
        self.num_applications += 1
        return self._apply(np.asarray(r))

    def apply_batch(self, r: np.ndarray) -> np.ndarray:
        """Apply the preconditioner to ``k`` residuals at once (one per column).

        Counts ``k`` invocations so the paper's Table 3 metric — primary
        preconditioner applications until convergence — is independent of
        whether solves were batched.  A one-column block runs as a vector:
        the block kernels cost more than the vector ones at ``k = 1``.
        """
        r = np.asarray(r)
        if r.ndim != 2:
            raise ValueError(f"apply_batch expects R of shape (n, k); got {r.shape}")
        self.num_applications += r.shape[1]
        if r.shape[1] == 1:
            return self._apply(r[:, 0])[:, None]
        return self._apply(r)

    def triangular_form(self):
        """``(lower, scale, upper)`` when applying this preconditioner is
        exactly ``upper.solve`` of ``diag_scale(scale, lower.solve(r))`` —
        ``scale`` ``None`` for no middle scaling — else ``None``.  A
        compiled engine may then run the application itself (``native``'s
        Richardson sweep), but only while :meth:`applies_as_described`."""
        return None

    #: ``(apply_batch, _apply)`` as the class that last defined
    #: :meth:`triangular_form` had them (set by ``__init_subclass__``)
    _described: tuple | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "triangular_form" in vars(cls):
            cls._described = (cls.apply_batch, cls._apply)

    def applies_as_described(self) -> bool:
        """Whether :meth:`apply_batch` and :meth:`_apply` are still the
        methods :meth:`triangular_form` was written beside: no subclass
        override and no wrapper on the class or the instance (a tracer's
        span, a test's spy) has replaced either since.  An engine that runs
        the form in the application's place would skip such a
        replacement."""
        described = self._described
        return (described is not None
                and getattr(self.apply_batch, "__func__", None) is described[0]
                and getattr(self._apply, "__func__", None) is described[1])

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def astype(self, precision: Precision | str) -> "Preconditioner":
        """Return a copy whose stored values are cast to ``precision``.

        The copy shares structural arrays with the original (pattern, level
        schedules) but has its own application counter.
        """

    def reset_counter(self) -> None:
        self.num_applications = 0

    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, int]:
        """Dimensions of the operator the preconditioner approximates."""

    def memory_bytes(self) -> int:
        """Bytes occupied by the preconditioner's stored values (0 if unknown)."""
        return 0

    @property
    def name(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}(shape={self.shape}, precision={self.precision.label})"


class IdentityPreconditioner(Preconditioner):
    """The do-nothing preconditioner (``M = I``); useful as a baseline and in tests."""

    def __init__(self, n: int, precision: Precision | str = Precision.FP64) -> None:
        super().__init__(precision)
        self._n = int(n)

    def _apply(self, r: np.ndarray) -> np.ndarray:
        return r.astype(self.precision.dtype, copy=True)

    def astype(self, precision: Precision | str) -> "IdentityPreconditioner":
        return IdentityPreconditioner(self._n, precision)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)
