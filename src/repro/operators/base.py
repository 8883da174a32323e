"""The linear-operator contract: what the solver stack requires of ``A``.

The paper's nested solvers only ever *apply* the coefficient matrix — every
level of the ``(F^m1, F^m2, F^m3, R^m4, M)`` hierarchy touches ``A`` through
``y = A x`` (or its multi-RHS form), never through its entries.  The
:class:`LinearOperator` contract captures exactly that surface, so the
solvers, preconditioner plumbing, dispatcher, and cost model can run against
assembled storage (:class:`~repro.operators.AssembledOperator`), matrix-free
stencils (:class:`~repro.operators.StencilOperator`), or composites
(:class:`~repro.operators.ShiftedOperator` / ``ScaledOperator``) without
knowing which one they hold.

The contract:

* ``shape`` / ``dtype`` / ``precision`` — dimensions and storage precision of
  the operator's coefficients (the precision-emulation rules promote the
  coefficient and vector precisions exactly as for assembled matrices).
* ``apply(x)`` / ``apply_batch(X)`` — the operator product, dispatched
  through the active kernel backend.  ``apply_batch`` defaults to a
  column-by-column loop over ``apply`` (the per-column oracle);
  implementations whose kernel takes a block override it.
* ``nnz_per_row`` — structural nonzeros per row, the ``cA`` input of the
  Section 4.1 cost model (exact for the shipped operators, an estimate in
  general).
* ``fingerprint()`` — a stable content hash; the
  :class:`~repro.serve.BatchDispatcher` groups requests and keys its setup
  cache on it, so equal-valued operators held by different callers batch
  together.
* ``astype(precision)`` — the per-level precision cast used by
  :class:`~repro.solvers.nested.NestedSolverBuilder`; operators cache the
  casts (they are immutable), so repeated requests are free.
* ``diagonal()`` — ``diag(A)`` in fp64; the Jacobi fallback preconditioner
  for matrix-free solves is built from it.

:class:`~repro.sparse.CSRMatrix` itself satisfies the contract structurally
(it grew ``apply``/``apply_batch`` aliases), so existing call sites keep
working; :func:`as_operator` upgrades a raw matrix to an
:class:`AssembledOperator`, which adds the rest of the contract (shape
checks, ``assembled_entries``, cached precision casts) on top.
"""

from __future__ import annotations

import abc

import numpy as np

from ..backends.base import column_loop
from ..precision import BYTES_PER_INDEX, Precision, as_precision, precision_of_dtype

__all__ = ["LinearOperator", "as_operator"]


class LinearOperator(abc.ABC):
    """Abstract operator ``A``: everything the solver stack needs from a matrix."""

    #: ``(nrows, ncols)``; set by subclasses.
    shape: tuple[int, int]

    # ------------------------------------------------------------------ #
    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    @abc.abstractmethod
    def dtype(self) -> np.dtype:
        """Storage dtype of the operator's coefficients."""

    @property
    def precision(self) -> Precision:
        return precision_of_dtype(self.dtype)

    @property
    @abc.abstractmethod
    def nnz_per_row(self) -> float:
        """Structural nonzeros per row (the cost model's ``cA`` input)."""

    @property
    def nnz(self) -> int:
        """Structural nonzeros (estimate: ``nnz_per_row * nrows``)."""
        return int(round(self.nnz_per_row * self.nrows))

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def apply(self, x: np.ndarray, out_precision: Precision | str | None = None,
              record: bool = True) -> np.ndarray:
        """``y = A @ x`` with the usual precision-emulation rules.

        Arithmetic runs in the promotion of the operator and vector
        precisions; the result is rounded to ``out_precision`` (default: the
        vector precision).
        """

    def apply_batch(self, x: np.ndarray, out_precision: Precision | str | None = None,
                    record: bool = True) -> np.ndarray:
        """``Y = A @ X`` for ``X`` of shape ``(ncols, k)``.

        The default loops :meth:`apply` column by column (the per-column
        oracle); operators with a block kernel override it with bit-identical,
        counter-parity semantics.
        """
        return column_loop(lambda xj: self.apply(xj, out_precision=out_precision,
                                                 record=record), x)

    # Aliases matching the assembled-matrix surface, so code written against
    # CSRMatrix (``matvec``/``matmat``/``@``) works on any operator.
    def matvec(self, x: np.ndarray, out_precision: Precision | str | None = None,
               record: bool = True) -> np.ndarray:
        return self.apply(x, out_precision=out_precision, record=record)

    def matmat(self, x: np.ndarray, out_precision: Precision | str | None = None,
               record: bool = True) -> np.ndarray:
        return self.apply_batch(x, out_precision=out_precision, record=record)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return self.apply_batch(x) if x.ndim == 2 else self.apply(x)

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def fingerprint(self) -> str:
        """Stable content hash (dispatcher grouping / setup-cache key)."""

    @abc.abstractmethod
    def astype(self, precision: Precision | str) -> "LinearOperator":
        """The operator with coefficients cast to ``precision`` (cached)."""

    def diagonal(self) -> np.ndarray:
        """``diag(A)`` as a dense fp64 vector (Jacobi fallback source)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not expose its diagonal; supply an "
            "explicit preconditioner instead of 'auto'/'jacobi'")

    def assembled_entries(self):
        """The operator as an assembled :class:`~repro.sparse.CSRMatrix`,
        or ``None`` when entries are not (cheaply) available.

        The preconditioner factory uses this capability: factorization-based
        preconditioners (ILU/IC, block-Jacobi, AINV) need entries, so
        operators that can produce them keep the full ``"auto"`` selection —
        composites over assembled bases materialize their transform here —
        while genuinely matrix-free operators return ``None`` and fall back
        to Jacobi-from-:meth:`diagonal`.
        """
        return None

    def memory_bytes(self) -> int:
        """Bytes of coefficient storage (0 when effectively matrix-free)."""
        return 0

    def apply_traffic_constant(self, value_precision: Precision | str = Precision.FP64
                               ) -> float:
        """``cA`` of this operator's apply kernel, in fp64 words per row.

        The Section 4.1 cost-model input describing what one apply actually
        streams.  The default is the assembled constant (values + 32-bit
        indices per row); matrix-free operators override it with their
        collapsed coefficient traffic, and composites delegate to their base
        so the model sees the fused apply, not a notional assembly.
        """
        p = as_precision(value_precision)
        return self.nnz_per_row * (p.bytes + BYTES_PER_INDEX) / 8.0

    def _validate_vector(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.ncols,):
            raise ValueError(f"dimension mismatch: operator is {self.shape}, "
                             f"x has shape {x.shape}")
        return x

    def _validate_block(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != self.ncols:
            raise ValueError(f"dimension mismatch: operator is {self.shape}, "
                             f"X has shape {x.shape}")
        return x

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(shape={self.shape}, "
                f"precision={self.precision.label})")


def as_operator(matrix) -> LinearOperator:
    """Coerce ``matrix`` to the operator contract.

    A :class:`LinearOperator` passes through unchanged; a
    :class:`~repro.sparse.CSRMatrix` is wrapped in an
    :class:`~repro.operators.AssembledOperator`; any other object that
    already satisfies the contract structurally — ``apply``/``apply_batch``/
    ``astype`` plus ``shape`` and ``precision`` (what the solver stack
    actually touches) — passes through as-is (e.g. a third-party duck type).
    Anything else is rejected.
    """
    if isinstance(matrix, LinearOperator):
        return matrix
    from ..sparse.csr import CSRMatrix
    if isinstance(matrix, CSRMatrix):
        from .assembled import AssembledOperator

        return AssembledOperator(matrix)
    if (callable(getattr(matrix, "apply", None))
            and callable(getattr(matrix, "apply_batch", None))
            and callable(getattr(matrix, "astype", None))
            and getattr(matrix, "shape", None) is not None
            and getattr(matrix, "precision", None) is not None):
        return matrix
    raise TypeError(f"cannot interpret {type(matrix).__name__} as a LinearOperator; "
                    "pass a CSRMatrix, a LinearOperator implementation, or an "
                    "object with apply/apply_batch/astype, shape and precision")


def derived_fingerprint(parent: str, *parts) -> str:
    """Fingerprint of an operator derived from one with fingerprint ``parent``.

    O(1) in the operator size: conversions and composites thread the source
    fingerprint through instead of rehashing the underlying arrays, so all
    precision variants / composites of one operator produce consistent,
    cheaply computed cache keys.
    """
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    h.update(repr((parent,) + parts).encode())
    return h.hexdigest()
