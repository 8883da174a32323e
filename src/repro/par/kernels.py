"""Partitioned executors for the thread-parallel kernels.

Each function here runs one slab/chunk decomposition of a hot kernel across
the worker pool (:func:`repro.par.pool.run_tasks`).  The determinism
contract every executor keeps:

* a worker computes its output rows with **exactly the serial kernel's
  arithmetic** — the same per-element products, the same per-row
  left-to-right ``reduceat`` reductions, the same staged-fp16 rounding
  chain — only restricted to a contiguous row range;
* workers write **disjoint output slices** (or disjoint scatter index sets
  for the triangular solves), so there are no cross-thread read-modify-write
  hazards and no accumulation-order ambiguity.

Together these make the partitioned result bit-identical to the serial one
for every thread count, which is what the ``REPRO_THREADS`` equivalence
sweep in ``tests/test_parallel.py`` pins.

Worker-side temporaries come from a module-level per-thread arena
(:func:`slab_workspace`) — pool workers are persistent, so the buffers warm
up once and are reused across calls; the buffers are capacity-grown
(:meth:`~repro.backends.workspace.Workspace.get_rows`), so varying slab
sizes re-slice one allocation instead of keying a new buffer per size.
Callers never see these arenas: shared inputs (value casts, the input
vector) are read-only inside workers, and results land in caller-allocated
fresh output arrays.

Counter recording stays entirely in the calling thread (counters are
thread-local): the fast backend records the same totals it records for the
serial kernel, so partitioning is invisible to the traffic model —
per-partition counter parity for free.
"""

from __future__ import annotations

import numpy as np

from ..backends.workspace import ThreadLocalWorkspace, Workspace
from .pool import run_tasks

try:  # pragma: no cover - scipy ships with the test environment
    from scipy.sparse import _sparsetools as _scipy_sparsetools
except ImportError:  # pragma: no cover
    _scipy_sparsetools = None

__all__ = [
    "slab_workspace",
    "run_spans",
    "spmv_csr_slabs",
    "spmm_csr_slabs",
    "csr_matvec_slabs",
    "csr_matvecs_slabs",
    "spmv_ell_slabs",
    "spmm_ell_slabs",
    "trsv_level_chunks",
    "trsm_level_chunks",
]

_SLAB_TLS = ThreadLocalWorkspace()


def slab_workspace() -> Workspace:
    """The calling thread's slab-scratch arena (one per pool worker)."""
    return _SLAB_TLS.workspace


def run_spans(spans, fn) -> None:
    """Run ``fn(lo, hi)`` for every span, one task per span."""
    run_tasks([(lambda lo=lo, hi=hi: fn(lo, hi)) for lo, hi in spans])


def _flat(ws: Workspace, name: str, size: int, dtype) -> np.ndarray:
    """A capacity-grown 1-D scratch vector (re-sliced across slab sizes)."""
    return ws.get_rows(name, int(size), (), dtype)


def _block(ws: Workspace, name: str, size: int, k: int, dtype) -> np.ndarray:
    """A capacity-grown ``(size, k)`` scratch block."""
    return ws.get_rows(name, int(size), (int(k),), dtype)


# ---------------------------------------------------------------------- #
# CSR / ELL sparse products (gather-multiply-reduceat recipe)
# ---------------------------------------------------------------------- #
def _segment_products_into(ws: Workspace, name: str, vals_seg, gather_idx,
                           x_c) -> np.ndarray:
    """The slab's product stream ``vals * x[idx]`` in ``x_c``'s dtype, on
    the worker's arena (fp32 operands give the exact products of the
    staged-fp16 recipe)."""
    shape = (gather_idx.shape[0],) + x_c.shape[1:]
    prods = ws.get_rows(name, shape[0], shape[1:], x_c.dtype)
    x_c.take(gather_idx, axis=0, out=prods)
    np.multiply(prods, vals_seg.reshape((-1,) + (1,) * (x_c.ndim - 1)),
                out=prods)
    return prods


def _segment_sums_into(ws: Workspace, prods, local, y_slab, staged) -> None:
    """The slab's per-row sums into ``y_slab``: direct ``reduceat``, or
    the staged-fp16 recipe (products rounded to fp16 in fp32, fp32 sums
    rounded once) — exactly the serial kernel's arithmetic either way."""
    from ..backends.base import row_segment_sums
    from ..backends.halfvec import segment_sums_round

    if staged:
        segment_sums_round(prods, local, y_slab, scratch=ws)
    else:
        row_segment_sums(prods, local, y_slab)


def spmv_csr_slabs(vals_c, indices, x_c, y, slabs, staged=False) -> np.ndarray:
    """Partitioned gather-path CSR SpMV into caller-allocated ``y``.

    ``staged``: ``vals_c``/``x_c`` are the fp32-staged copies of fp16
    operands and ``y`` is fp16.  ``x_c``/``y`` may be ``(n, k)`` blocks
    (:func:`spmm_csr_slabs`).
    """

    def task(r0, r1, s0, s1, local):
        ws = slab_workspace()
        prods = _segment_products_into(ws, "par_prod", vals_c[s0:s1],
                                       indices[s0:s1], x_c)
        _segment_sums_into(ws, prods, local, y[r0:r1], staged)

    run_tasks([(lambda s=s: task(*s)) for s in slabs])
    return y


def spmm_csr_slabs(vals_c, indices, x_c, y, slabs, staged=False) -> np.ndarray:
    """Partitioned gather-path CSR SpMM (``x_c``/``y`` of shape ``(n, k)``)."""
    return spmv_csr_slabs(vals_c, indices, x_c, y, slabs, staged=staged)


def csr_matvec_slabs(ncols, vals, indices, y, x_c, slabs) -> np.ndarray:
    """Partitioned scipy compiled CSR matvec, accumulating into ``y`` rows.

    Matches the serial ``csr_matvec`` semantics (``y[i] += row · x``) per
    row; callers pre-fill ``y`` (zeros for a plain product, a copy of the
    combine operand for the fused residual).
    """

    def task(r0, r1, s0, s1, local):
        _scipy_sparsetools.csr_matvec(r1 - r0, ncols, local, indices[s0:s1],
                                      vals[s0:s1], x_c, y[r0:r1])

    run_tasks([(lambda s=s: task(*s)) for s in slabs])
    return y


def csr_matvecs_slabs(ncols, k, vals, indices, y, x_c, slabs) -> np.ndarray:
    """Partitioned scipy compiled CSR SpMM accumulation (C-ordered ``y``)."""
    x_flat = x_c.ravel()

    def task(r0, r1, s0, s1, local):
        _scipy_sparsetools.csr_matvecs(r1 - r0, ncols, k, local,
                                       indices[s0:s1], vals[s0:s1], x_flat,
                                       y[r0:r1].ravel())

    run_tasks([(lambda s=s: task(*s)) for s in slabs])
    return y


def spmv_ell_slabs(vals_rm, cols_rm, x_c, y, slabs, staged=False) -> np.ndarray:
    """Partitioned row-major sliced-ELL SpMV (same recipe as the CSR path,
    over the row-major gather plan's entry stream)."""
    return spmv_csr_slabs(vals_rm, cols_rm, x_c, y, slabs, staged=staged)


def spmm_ell_slabs(vals_rm, cols_rm, x_c, y, slabs, staged=False) -> np.ndarray:
    """Partitioned row-major sliced-ELL SpMM."""
    return spmm_csr_slabs(vals_rm, cols_rm, x_c, y, slabs, staged=staged)


# ---------------------------------------------------------------------- #
# Within-level triangular substitution
# ---------------------------------------------------------------------- #
def trsv_level_chunks(x, b_c, rows, gather_cols, lv, inv, chunks) -> None:
    """One dependency level of a triangular solve, chunked across threads.

    ``x`` is the shared solution vector: workers read columns solved by
    *earlier* levels and scatter into this level's disjoint row sets —
    exactly the serial per-level update ``x[rows] = (b[rows] − Σ) · inv``
    restricted to each chunk.  The caller barriers between levels
    (``run_tasks`` joins), so no worker ever reads a row still being
    written.
    """

    def task(c0, c1, g0, g1, local_off, mask):
        rows_c = rows[c0:c1]
        ws = slab_workspace()
        sums = _flat(ws, "par_trsv_sums", c1 - c0, x.dtype)
        if g1 == g0:
            sums.fill(0)
        elif mask is None:
            np.add.reduceat(lv[g0:g1] * x[gather_cols[g0:g1]], local_off,
                            out=sums)
        else:
            sums.fill(0)
            sums[mask] = np.add.reduceat(lv[g0:g1] * x[gather_cols[g0:g1]],
                                         local_off)
        x[rows_c] = (b_c[rows_c] - sums) * inv[c0:c1]

    run_tasks([(lambda c=c: task(*c)) for c in chunks])


def trsm_level_chunks(x, b_c, rows, gather_cols, lv, inv, chunks) -> None:
    """Batched (multi-RHS) variant of :func:`trsv_level_chunks`."""
    k = x.shape[1]

    def task(c0, c1, g0, g1, local_off, mask):
        rows_c = rows[c0:c1]
        ws = slab_workspace()
        sums = _block(ws, "par_trsm_sums", c1 - c0, k, x.dtype)
        if g1 == g0:
            sums.fill(0)
        elif mask is None:
            np.add.reduceat(x[gather_cols[g0:g1], :] * lv[g0:g1, None],
                            local_off, out=sums)
        else:
            sums.fill(0)
            sums[mask] = np.add.reduceat(
                x[gather_cols[g0:g1], :] * lv[g0:g1, None], local_off)
        x[rows_c] = (b_c[rows_c] - sums) * inv[c0:c1, None]

    run_tasks([(lambda c=c: task(*c)) for c in chunks])
