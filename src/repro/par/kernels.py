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
(:meth:`~repro.backends.workspace.Workspace.get`), so varying slab sizes
re-slice one allocation instead of keying a new buffer per size.
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

from ..backends.base import per_row, row_segment_sums
from ..backends.halfvec import segment_sums_round
from ..backends.workspace import ThreadLocalWorkspace, Workspace
from .pool import run_tasks

try:  # pragma: no cover - scipy ships with the test environment
    from scipy.sparse import _sparsetools as _scipy_sparsetools
except ImportError:  # pragma: no cover
    _scipy_sparsetools = None

__all__ = [
    "slab_workspace",
    "run_spans",
    "gather_slabs",
    "csr_accumulate",
    "scipy_slabs",
    "level_chunks",
]

_SLAB_TLS = ThreadLocalWorkspace()


def slab_workspace() -> Workspace:
    """The calling thread's slab-scratch arena (one per pool worker)."""
    return _SLAB_TLS.workspace


def run_spans(spans, fn) -> None:
    """Run ``fn(lo, hi)`` for every span, one task per span."""
    run_tasks([(lambda lo=lo, hi=hi: fn(lo, hi)) for lo, hi in spans])


# ---------------------------------------------------------------------- #
# CSR / ELL sparse products
# ---------------------------------------------------------------------- #
def gather_slabs(vals_c, indices, x_c, y, slabs, staged=False) -> np.ndarray:
    """Partitioned gather-multiply-reduceat product into caller-allocated
    ``y``: the CSR SpMV, or the row-major sliced-ELL one over its gather
    plan's entry stream.

    ``x_c``/``y`` are vectors or ``(n, k)`` blocks.  ``staged``:
    ``vals_c``/``x_c`` are the fp32-staged copies of fp16 operands and ``y``
    is fp16; each slab's products are rounded to fp16 in fp32 and its fp32
    row sums rounded once — exactly the serial kernel's arithmetic.
    """
    vals_c = per_row(vals_c, x_c.ndim)

    def task(r0, r1, s0, s1, local):
        ws = slab_workspace()
        gather = indices[s0:s1]
        prods = ws.get("par_prod", gather.shape + x_c.shape[1:], x_c.dtype)
        x_c.take(gather, axis=0, out=prods)
        np.multiply(prods, vals_c[s0:s1], out=prods)
        if staged:
            segment_sums_round(prods, local, y[r0:r1], scratch=ws)
        else:
            row_segment_sums(prods, local, y[r0:r1])

    run_tasks([(lambda s=s: task(*s)) for s in slabs])
    return y


def csr_accumulate(nrows, ncols, indptr, indices, vals, x_c, y) -> None:
    """``y += A·x`` through scipy's compiled CSR kernel: ``csr_matvec`` for
    a vector, ``csr_matvecs`` for a C-ordered ``(n, k)`` block."""
    if x_c.ndim == 1:
        _scipy_sparsetools.csr_matvec(nrows, ncols, indptr, indices, vals, x_c, y)
    else:
        _scipy_sparsetools.csr_matvecs(nrows, ncols, x_c.shape[1], indptr,
                                       indices, vals, x_c.ravel(), y.ravel())


def scipy_slabs(ncols, vals, indices, y, x_c, slabs) -> np.ndarray:
    """Partitioned :func:`csr_accumulate` into ``y`` rows.

    Each slab runs the serial compiled accumulation (``y[i] += row · x``)
    on its rows, so callers pre-fill ``y`` (zeros for a plain product, a
    copy of the combine operand for the fused residual).
    """

    def task(r0, r1, s0, s1, local):
        csr_accumulate(r1 - r0, ncols, local, indices[s0:s1], vals[s0:s1],
                       x_c, y[r0:r1])

    run_tasks([(lambda s=s: task(*s)) for s in slabs])
    return y


# ---------------------------------------------------------------------- #
# Within-level triangular substitution
# ---------------------------------------------------------------------- #
def level_chunks(x, b_c, rows, gather_cols, lv, inv, chunks) -> None:
    """One dependency level of a triangular solve, chunked across threads.

    ``x`` is the shared solution (a vector or an ``(n, k)`` block, with
    ``lv``/``inv`` shaped to broadcast against its rows): workers read rows
    solved by *earlier* levels and scatter into this level's disjoint row
    sets — exactly the serial per-level update ``x[rows] = (b[rows] − Σ) ·
    inv`` restricted to each chunk.  The caller barriers between levels
    (``run_tasks`` joins), so no worker ever reads a row still being
    written.
    """

    def task(c0, c1, g0, g1, local_off, mask):
        rows_c = rows[c0:c1]
        sums = slab_workspace().get("par_trsv_sums", (c1 - c0,) + x.shape[1:],
                                    x.dtype)
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
