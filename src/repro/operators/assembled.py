"""Assembled-storage operator with CSR / sliced-ELLPACK format auto-selection.

Wraps a :class:`~repro.sparse.CSRMatrix` behind the
:class:`~repro.operators.LinearOperator` contract and picks the storage
format each apply actually runs on:

* an explicit ``format="csr"`` / ``format="ell"`` pins the choice;
* ``format="auto"`` (default) asks the active backend for a preference
  (:meth:`~repro.backends.base.KernelBackend.preferred_assembled_format` —
  the ``fast`` engine pins CSR for the dtypes scipy's compiled matvec
  handles) and otherwise compares the Section 4.1 per-row traffic of the two
  layouts: CSR moves ``nnz/row`` values + column indices + a row-pointer
  word, sliced ELLPACK moves its *padded* entries — so ELL wins only when
  the chunk padding overhead stays below the row-pointer saving (near-uniform
  row lengths, the regular-grid case).

The choice is a pure function of (matrix, engine, precision, chunk size):
no timing run enters it, so the same operator stores the same way, and a
solve gives the same bits, in every process.  The choice and the lazily built
ELL form are cached per backend; everything is derived from the immutable CSR
source, so the wrapper adds no mutability.
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..precision import BYTES_PER_INDEX, Precision, as_precision
from .base import LinearOperator

__all__ = ["AssembledOperator"]

_FORMATS = ("auto", "csr", "ell")


class AssembledOperator(LinearOperator):
    """A CSR-backed operator that auto-selects its apply-time storage format."""

    def __init__(self, matrix, format: str = "auto", chunk_size: int = 32) -> None:
        from ..sparse.csr import CSRMatrix

        if not isinstance(matrix, CSRMatrix):
            raise TypeError("AssembledOperator wraps a CSRMatrix; "
                            f"got {type(matrix).__name__}")
        if format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}; got {format!r}")
        self.csr = matrix
        self.format = format
        self.chunk_size = int(chunk_size)
        self.shape = matrix.shape
        self._ell = None
        self._format_choice: dict[str, str] = {}
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

    def apply_traffic_constant(self, value_precision=Precision.FP64) -> float:
        """``cA`` of the storage format the active backend's applies run on:
        structural nnz for CSR, padded entries for sliced ELL (computed
        without building the ELL arrays)."""
        p = as_precision(value_precision)
        if self._choose_format(get_backend()) == "ell":
            per_row = self._padded_nnz() / max(1, self.csr.nrows)
        else:
            per_row = self.csr.nnz_per_row
        return per_row * (p.bytes + BYTES_PER_INDEX) / 8.0

    # ------------------------------------------------------------------ #
    def _padded_nnz(self) -> int:
        """Stored entries of the sliced-ELL layout, without building it."""
        from ..sparse.ell import padded_entry_count

        return padded_entry_count(self.csr.row_nnz(), self.chunk_size)

    def _choose_format(self, backend) -> str:
        if self.format != "auto":
            return self.format
        choice = self._format_choice.get(backend.name)
        if choice is None:
            choice = backend.preferred_assembled_format(self.precision)
            if choice not in ("csr", "ell"):
                # the analytic cost-model comparison (Section 4.1 traffic
                # constants, in bytes per row): CSR reads values + column
                # indices + one row-pointer word; sliced ELL reads its
                # padded entries.
                nrows = max(1, self.csr.nrows)
                entry = self.precision.bytes + BYTES_PER_INDEX
                csr_bytes = self.csr.nnz_per_row * entry + BYTES_PER_INDEX
                ell_bytes = (self._padded_nnz() / nrows) * entry
                choice = "ell" if ell_bytes < csr_bytes else "csr"
            self._format_choice[backend.name] = choice
        return choice

    def storage_for(self, backend):
        """The storage object applies run on under ``backend``."""
        if self._choose_format(backend) == "ell":
            if self._ell is None:
                from ..sparse.ell import SlicedEllMatrix

                self._ell = SlicedEllMatrix(self.csr, chunk_size=self.chunk_size)
            return self._ell
        return self.csr

    def storage(self):
        """The storage object the active backend's applies will run on."""
        return self.storage_for(get_backend())

    # ------------------------------------------------------------------ #
    def apply(self, x, out_precision=None, record: bool = True):
        x = self._validate_vector(x)
        return self.storage().matvec(x, out_precision=out_precision, record=record)

    def apply_batch(self, x, out_precision=None, record: bool = True):
        x = self._validate_block(x)
        return self.storage().matmat(x, out_precision=out_precision, record=record)

    # ------------------------------------------------------------------ #
    def astype(self, precision) -> "AssembledOperator":
        p = as_precision(precision)
        if p == self.precision:
            return self
        cached = self._astype_cache.get(p)
        if cached is None:
            # CSRMatrix.astype threads the cached fingerprint through, so the
            # cast copy's dispatcher key derives in O(1)
            cached = AssembledOperator(self.csr.astype(p), format=self.format,
                                       chunk_size=self.chunk_size)
            self._astype_cache[p] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AssembledOperator(shape={self.shape}, nnz={self.nnz}, "
                f"format={self.format!r}, precision={self.precision.label})")
