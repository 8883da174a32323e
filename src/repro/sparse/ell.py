"""Sliced ELLPACK sparse format.

The paper's GPU experiments store matrices in sliced ELLPACK (Monakov et al.,
2010) with a chunk (slice) size of 32: rows are grouped into chunks, each chunk
is padded to the width of its longest row, and values are laid out
column-major within the chunk so that consecutive threads read consecutive
addresses.  Here the format matters because its padding changes the memory
traffic, which is what the GPU machine model consumes.

The matvec kernel dispatches through the active :mod:`repro.backends` engine;
the ``fast`` backend attaches a row-major gather plan and scratch buffers to
the matrix (``_rm_plan`` / ``_scratch``) on first use.
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..backends.workspace import ScratchOwner, ThreadLocalWorkspace
from ..precision import BYTES_PER_INDEX, Precision, as_precision, precision_of_dtype

__all__ = ["SlicedEllMatrix", "chunk_widths", "padded_entry_count"]


def chunk_widths(row_nnz: np.ndarray, chunk_size: int) -> np.ndarray:
    """Per-chunk padded width (the longest row of each ``chunk_size`` slice).

    The single source of the sliced-ELLPACK padding rule: every chunk —
    including a partial trailing one — stores ``width * chunk_size`` entries.
    Shared by :class:`SlicedEllMatrix` and the format auto-selection cost
    estimate so the two can never diverge.
    """
    nrows = int(row_nnz.size)
    nchunks = (nrows + chunk_size - 1) // chunk_size
    if not nchunks:
        return np.zeros(0, dtype=np.int32)
    starts = np.arange(nchunks, dtype=np.int64) * chunk_size
    return np.maximum.reduceat(row_nnz, starts).astype(np.int32)


def padded_entry_count(row_nnz: np.ndarray, chunk_size: int) -> int:
    """Stored (padded) entries of the sliced-ELL layout for these row lengths."""
    widths = chunk_widths(np.asarray(row_nnz, dtype=np.int64), chunk_size)
    return int(widths.astype(np.int64).sum()) * int(chunk_size)


class SlicedEllMatrix(ScratchOwner):
    """Sparse matrix in sliced-ELLPACK layout.

    Parameters
    ----------
    csr:
        Source :class:`~repro.sparse.csr.CSRMatrix`.
    chunk_size:
        Number of rows per slice (the paper uses 32).
    """

    __slots__ = ("shape", "chunk_size", "chunk_widths", "chunk_offsets",
                 "values", "indices", "_source_nnz", "_rm_plan", "_rm_vals",
                 "_scratch")

    def __init__(self, csr, chunk_size: int = 32) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        nrows, ncols = csr.shape
        self.shape = (nrows, ncols)
        self.chunk_size = int(chunk_size)
        self._source_nnz = csr.nnz
        self._rm_plan = None
        self._rm_vals: dict = {}
        self._scratch = None

        row_nnz = np.diff(csr.indptr).astype(np.int64)
        self.chunk_widths = chunk_widths(row_nnz, chunk_size)
        nchunks = self.chunk_widths.size

        offsets = np.zeros(nchunks + 1, dtype=np.int64)
        np.cumsum(self.chunk_widths.astype(np.int64) * chunk_size, out=offsets[1:])
        self.chunk_offsets = offsets

        total = int(offsets[-1])
        values = np.zeros(total, dtype=csr.values.dtype)
        indices = np.zeros(total, dtype=np.int32)

        # Column-major layout within each chunk: element (row r, slot j) of
        # chunk c lives at offset[c] + j*chunk_size + (r - c*chunk_size).
        # Scatter all CSR entries to their slots in one vectorized pass;
        # padding slots keep value 0 and column 0 (harmless: 0 * x[0]).
        if csr.nnz:
            rows_all = np.repeat(np.arange(nrows, dtype=np.int64), row_nnz)
            k_within = (np.arange(csr.nnz, dtype=np.int64)
                        - np.repeat(csr.indptr[:-1].astype(np.int64), row_nnz))
            chunk_all = rows_all // chunk_size
            slots = (offsets[chunk_all] + k_within * chunk_size
                     + (rows_all - chunk_all * chunk_size))
            values[slots] = csr.values
            indices[slots] = csr.indices
        self.values = values
        self.indices = indices

    # ------------------------------------------------------------------ #
    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of *stored* (padded) entries."""
        return int(self.values.size)

    @property
    def source_nnz(self) -> int:
        """Number of structural nonzeros of the source matrix."""
        return self._source_nnz

    @property
    def padding_ratio(self) -> float:
        """stored entries / structural nonzeros (>= 1)."""
        return self.nnz / max(1, self._source_nnz)

    @property
    def nnz_per_row(self) -> float:
        """Stored (padded) entries per row — what an ELL apply streams, the
        honest ``cA`` input for this layout."""
        return self.nnz / max(1, self.nrows)

    @property
    def precision(self) -> Precision:
        return precision_of_dtype(self.values.dtype)

    def memory_bytes(self) -> int:
        return (self.values.size * self.precision.bytes
                + self.indices.size * BYTES_PER_INDEX
                + self.chunk_offsets.size * 8)

    def astype(self, precision: Precision | str) -> "SlicedEllMatrix":
        p = as_precision(precision)
        out = object.__new__(SlicedEllMatrix)
        out.shape = self.shape
        out.chunk_size = self.chunk_size
        out.chunk_widths = self.chunk_widths
        out.chunk_offsets = self.chunk_offsets
        out.values = self.values.astype(p.dtype)
        out.indices = self.indices
        out._source_nnz = self._source_nnz
        out._rm_plan = self._rm_plan       # layout-only; shared across dtypes
        out._rm_vals = {}                  # value-dependent; per instance
        out._scratch = None
        return out

    # ------------------------------------------------------------------ #
    def matvec(self, x: np.ndarray, out_precision: Precision | str | None = None,
               record: bool = True) -> np.ndarray:
        """y = A @ x using the sliced-ELLPACK layout (``x`` a vector or an
        ``(ncols, k)`` block, one right-hand side per column).

        Traffic accounting includes the padded entries — the whole point of
        modelling this format for the GPU experiments.
        """
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.ncols:
            raise ValueError("dimension mismatch in sliced-ELLPACK matvec")
        return get_backend().spmv_ell(self, x, out_precision=out_precision,
                                      record=record)

    def matmat(self, x: np.ndarray, out_precision: Precision | str | None = None,
               record: bool = True) -> np.ndarray:
        """Batched product ``A @ X`` for ``X`` of shape ``(ncols, k)``."""
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError("dimension mismatch in sliced-ELLPACK matmat")
        return self.matvec(x, out_precision=out_precision, record=record)

    # operator-contract aliases (see CSRMatrix.apply)
    def apply(self, x: np.ndarray, out_precision: Precision | str | None = None,
              record: bool = True) -> np.ndarray:
        return self.matvec(x, out_precision=out_precision, record=record)

    def apply_batch(self, x: np.ndarray, out_precision: Precision | str | None = None,
                    record: bool = True) -> np.ndarray:
        return self.matmat(x, out_precision=out_precision, record=record)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SlicedEllMatrix(shape={self.shape}, chunk_size={self.chunk_size}, "
                f"padding_ratio={self.padding_ratio:.2f}, precision={self.precision.label})")
