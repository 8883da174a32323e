"""Fast backend: vectorized kernels with workspace reuse and batched counters.

Same precision-emulation semantics as the ``reference`` backend — arithmetic in
the promoted precision, results rounded to the requested output precision —
but with the remaining Python-level loops replaced by single vectorized
passes:

* **CSR SpMV** reuses a per-matrix gather/product buffer and a cached cast of
  the value array per compute dtype (one ``values.astype`` for the lifetime of
  the matrix instead of one per call).
* **Sliced-ELLPACK SpMV** precomputes, once per matrix, a permutation that
  lays the chunked column-major storage out row-major; every matvec is then a
  single gather-multiply-``reduceat`` over all chunks at once instead of a
  Python loop per chunk.
* **Triangular solve** precomputes the per-level gather indices/segment
  offsets once per factor (the reference rebuilds them per solve) and streams
  each level with three vectorized ops.
* **FGMRES classical Gram-Schmidt** becomes BLAS-2: ``h = V[:j+1] @ w`` and a
  rank-1-style update ``w -= h @ V[:j+1]`` on the 2-D Krylov-basis workspace,
  replacing ``2(j+1)`` Python-level BLAS-1 calls per iteration.
* **Krylov combination** ``z = y @ Z[:k]`` replaces the per-vector axpy loop.
* **ILU(0)** keeps the (inherently sequential) elimination order but works on
  compact row segments with ``searchsorted`` intersections instead of
  scattering into size-``n`` pattern/work arrays for every row.
* **Batched multi-RHS kernels** (``spmm_csr``, ``spmm_ell``, ``trsm``) stream
  the matrix / the level schedule once over all ``k`` right-hand sides —
  scipy's compiled CSR SpMM for fp32/fp64, gather-multiply-``reduceat`` on
  ``(segment, k)`` blocks otherwise — instead of looping the single-RHS
  kernels column by column as the base-class oracle does.

Counter totals (bytes, flops, kernel calls) are identical to the reference;
they are recorded in one batched call per logical group, and skipped entirely
when :func:`repro.perf.counters.counters_enabled` is off.

**Thread-parallel execution** (:mod:`repro.par`): the CSR/ELL products, the
fused residuals, the stencil sweeps and the within-level triangular solves
each carry a partitioned variant that fans nnz-balanced row slabs across
the worker pool — same sub-path family (scipy compiled / staged fp16 /
generic gather) and exactly the serial per-row arithmetic, so results are
bit-identical for every thread count.  Workspace discipline under
partitioning (the PR-5 thread-safety audit):

* a partition worker never touches the caller's arena — its temporaries
  come from a dedicated per-worker slab arena
  (:func:`repro.par.kernels.slab_workspace`);
* caller-arena buffers cross into workers only as *read-only* inputs
  (value casts, staged ``x32`` expansions) or as *disjoint output spans*
  (the separable sweep's ping-pong buffers), and the caller is blocked in
  ``run_tasks`` for the duration, so no concurrent mutation exists;
* per-object caches that workers read (``ell._rm_vals``, ``_fast_vals``,
  gather plans) are immutable-once-built derived data — a benign
  cross-thread build race at worst derives them twice;
* counters are recorded once, in the calling thread (they are
  thread-local), with the exact serial totals — counter parity under
  partitioning is structural.

``tests/test_parallel_threadsafety.py`` hammers one plan/solver/factor from
four threads (each fanning across the pool) and requires every concurrent
result to be bit-identical to serial.
"""

from __future__ import annotations

import numpy as np

from ..par import kernels as par_kernels
from ..par.partition import (
    MIN_LEVEL_ROWS,
    csr_partition,
    kernel_threads,
    level_partition,
    par_state,
    span_partition,
)
from ..par.pool import forced_threads
from ..perf.counters import counters_enabled
from ..precision import BYTES_PER_INDEX, Precision, as_precision, precision_of_dtype, promote
from . import halfvec
from .base import (
    KernelBackend,
    ilu0_setup,
    row_segment_sums,
    segment_ramp,
    split_lower_upper,
    spmv_setup,
)

try:  # pragma: no cover - scipy ships with the test environment
    import scipy.sparse as _scipy_sparse
except ImportError:  # pragma: no cover
    _scipy_sparse = None

try:  # pragma: no cover - private but stable; guarded with a compose fallback
    from scipy.sparse import _sparsetools as _scipy_sparsetools
except ImportError:  # pragma: no cover
    _scipy_sparsetools = None

__all__ = ["FastBackend"]

_HALF = halfvec.HALF
_STAGE = halfvec.STAGE

#: compute dtypes scipy's compiled CSR matvec handles natively without
#: changing the emulated accumulation precision (fp16 would be upcast)
_SCIPY_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _build_ell_plan(ell) -> dict:
    """Row-major gather plan for a sliced-ELLPACK matrix.

    Maps every (row, slot) pair — including the zero padding — to its position
    in the chunked column-major storage, ordered row by row so a plain
    ``reduceat`` over ``rm_indptr`` produces the per-row sums.
    """
    n = ell.nrows
    cs = ell.chunk_size
    rows = np.arange(n, dtype=np.int64)
    chunk_of_row = rows // cs
    row_width = ell.chunk_widths.astype(np.int64)[chunk_of_row]
    rm_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_width, out=rm_indptr[1:])
    total = int(rm_indptr[-1])

    rows_rm = np.repeat(rows, row_width)
    slot_rm = np.arange(total, dtype=np.int64) - np.repeat(rm_indptr[:-1], row_width)
    chunk_rm = rows_rm // cs
    order = (ell.chunk_offsets[chunk_rm] + slot_rm * cs + (rows_rm - chunk_rm * cs))
    # column indices are layout-only, like the plan itself: share the
    # row-major copy across dtype casts and threads
    return {"order": order, "rm_indptr": rm_indptr, "cols_rm": ell.indices[order]}


def _build_trsv_plan(factor) -> list[tuple]:
    """Per-level gather indices and segment offsets, computed once per factor.

    Each entry is ``(rows, gather_idx, gather_cols, red_offsets, nonempty)``:
    ``red_offsets`` are the reduceat start positions of the *non-empty*
    segments only, and ``nonempty`` is ``None`` when every row of the level
    has dependencies (the common case), letting the solve skip the
    zero-fill/masked-assign path entirely.
    """
    rowptr = factor.off_rowptr
    cols = factor.off_cols
    plan = []
    for rows in factor.levels:
        starts = rowptr[rows]
        counts = rowptr[rows + 1] - starts
        total = int(counts.sum())
        if total:
            offsets = np.cumsum(counts) - counts
            gather_idx = np.repeat(starts, counts) + segment_ramp(counts)
            gather_cols = cols[gather_idx]
            nonempty = counts > 0
            if nonempty.all():
                plan.append((rows, gather_idx, gather_cols, offsets, None))
            else:
                plan.append((rows, gather_idx, gather_cols, offsets[nonempty],
                             nonempty))
        else:
            plan.append((rows, None, None, None, None))
    return plan


class FastBackend(KernelBackend):
    """Vectorized kernels with preallocated workspaces (the default engine)."""

    name = "fast"

    # ------------------------------------------------------------------ #
    def _csr_slabs(self, par, indptr, nt):
        """The matrix's nnz-balanced row slabs for ``nt`` threads (cached)."""
        return par.partition(("csr", nt), lambda: csr_partition(indptr, nt))

    def _spmv_csr_slabbed(self, values, indices, indptr, x_c, cdtype, n,
                          scratch, par, nt):
        """Thread-parallel CSR SpMV: same sub-path family as the serial
        kernel (scipy compiled / staged fp16 / generic gather), restricted
        per slab, so every output row is computed exactly as serially."""
        slabs = self._csr_slabs(par, indptr, nt)
        y = np.zeros(n, dtype=cdtype)
        if _scipy_sparse is not None and np.dtype(cdtype) in _SCIPY_DTYPES:
            vals_c = scratch.cast("csr_values", values, cdtype)
            par_kernels.csr_matvec_slabs(x_c.size, vals_c, indices, y, x_c, slabs)
        elif np.dtype(cdtype) == _HALF:
            vals32 = scratch.cast("csr_values_stage", values, _STAGE)
            x32 = halfvec.upcast(x_c, scratch.get("spmv_x32", x_c.size, _STAGE),
                                 scratch=scratch)
            par_kernels.spmv_csr_slabs(vals32, indices, x32, y, slabs,
                                       staged=True,
                                       round_into=halfvec.round_into)
        else:
            vals_c = scratch.cast("csr_values", values, cdtype)
            par_kernels.spmv_csr_slabs(vals_c, indices, x_c, y, slabs)
        return y

    def spmv_csr(self, values, indices, indptr, x, out_precision=None,
                 record=True, scratch=None, par=None):
        mat_prec, vec_prec, compute, out_prec = spmv_setup(values.dtype, x.dtype,
                                                           out_precision)
        cdtype = compute.dtype
        n = indptr.size - 1
        nnz = values.size
        x_c = x if x.dtype == cdtype else x.astype(cdtype)

        nt = (kernel_threads("spmv", nnz, par, rows=n)
              if par is not None and scratch is not None else 1)
        if (nt > 1 and np.dtype(cdtype) in _SCIPY_DTYPES
                and _scipy_sparsetools is None):
            nt = 1          # can't partition the compiled path; stay serial
        if nt > 1:
            y = self._spmv_csr_slabbed(values, indices, indptr, x_c, cdtype, n,
                                       scratch, par, nt)
            y = y.astype(out_prec.dtype, copy=False)
            if record and counters_enabled():
                self._record_spmv(mat_prec, vec_prec, out_prec, compute, n, nnz,
                                  nnz * BYTES_PER_INDEX + (n + 1) * BYTES_PER_INDEX)
            return y

        if (scratch is not None and _scipy_sparse is not None
                and np.dtype(cdtype) in _SCIPY_DTYPES):
            # scipy's compiled csr matvec: one fused pass, no product array.
            # Accumulation runs in the compute dtype exactly like the reference
            # (fused multiply-adds may differ in the last ulp).
            vals_c = scratch.cast("csr_values", values, cdtype)
            sp_mat = scratch.memo(
                ("scipy_csr", np.dtype(cdtype)),
                lambda: _scipy_sparse.csr_matrix((vals_c, indices, indptr),
                                                 shape=(n, x.size)))
            y = sp_mat @ x_c
        else:
            if scratch is not None and np.dtype(cdtype) == _HALF:
                # fp16 products staged through fp32: gather+multiply run as
                # SIMD fp32 passes and each product is rounded to fp16 by the
                # same conversion the fp16 ufunc applies per element — the
                # product stream is bit-identical, and the row reduction
                # keeps the per-add fp16 rounding (reduceat on fp16).
                vals32 = scratch.cast("csr_values_stage", values, _STAGE)
                x32 = halfvec.upcast(x_c, scratch.get("spmv_x32", x_c.size, _STAGE),
                                      scratch=scratch)
                prods32 = scratch.get("spmv_prod32", nnz, _STAGE)
                np.take(x32, indices, out=prods32)
                np.multiply(prods32, vals32, out=prods32)
                prods = halfvec.round_into(prods32,
                                           scratch.get("spmv_prod", nnz, cdtype),
                                           scratch=scratch)
            elif scratch is not None:
                vals_c = scratch.cast("csr_values", values, cdtype)
                prods = scratch.get("spmv_prod", nnz, cdtype)
                np.take(x_c, indices, out=prods)
                np.multiply(prods, vals_c, out=prods)
            else:
                vals_c = values if values.dtype == cdtype else values.astype(cdtype)
                prods = vals_c * x_c[indices]
            y = np.zeros(n, dtype=cdtype)
            row_segment_sums(prods, indptr, y)
        y = y.astype(out_prec.dtype, copy=False)

        if record and counters_enabled():
            self._record_spmv(mat_prec, vec_prec, out_prec, compute, n, nnz,
                              nnz * BYTES_PER_INDEX + (n + 1) * BYTES_PER_INDEX)
        return y

    # ------------------------------------------------------------------ #
    def _spmm_csr_slabbed(self, values, indices, indptr, x_c, cdtype, n, k,
                          scratch, par, nt):
        """Thread-parallel CSR SpMM (slab analogue of the serial paths)."""
        slabs = self._csr_slabs(par, indptr, nt)
        y = np.zeros((n, k), dtype=cdtype)
        if _scipy_sparse is not None and np.dtype(cdtype) in _SCIPY_DTYPES:
            vals_c = scratch.cast("csr_values", values, cdtype)
            par_kernels.csr_matvecs_slabs(x_c.shape[0], k, vals_c, indices, y,
                                          np.ascontiguousarray(x_c), slabs)
        elif np.dtype(cdtype) == _HALF:
            vals32 = scratch.cast("csr_values_stage", values, _STAGE)
            x32 = halfvec.upcast(x_c, scratch.get("spmm_x32", x_c.shape, _STAGE))
            par_kernels.spmm_csr_slabs(vals32, indices, x32, y, slabs,
                                       staged=True,
                                       round_into=halfvec.round_into)
        else:
            vals_c = scratch.cast("csr_values", values, cdtype)
            par_kernels.spmm_csr_slabs(vals_c, indices, x_c, y, slabs)
        return y

    def spmm_csr(self, values, indices, indptr, x, out_precision=None,
                 record=True, scratch=None, par=None):
        mat_prec, vec_prec, compute, out_prec = spmv_setup(values.dtype, x.dtype,
                                                           out_precision)
        cdtype = compute.dtype
        n = indptr.size - 1
        nnz = values.size
        k = x.shape[1]
        x_c = x if x.dtype == cdtype else x.astype(cdtype)

        nt = (kernel_threads("spmm", nnz, par, rows=n)
              if par is not None and scratch is not None else 1)
        if (nt > 1 and np.dtype(cdtype) in _SCIPY_DTYPES
                and _scipy_sparsetools is None):
            nt = 1
        if nt > 1:
            y = self._spmm_csr_slabbed(values, indices, indptr, x_c, cdtype, n,
                                       k, scratch, par, nt)
            y = y.astype(out_prec.dtype, copy=False)
            if record and counters_enabled():
                self._record_spmm(mat_prec, vec_prec, out_prec, compute, n, nnz,
                                  nnz * BYTES_PER_INDEX + (n + 1) * BYTES_PER_INDEX, k)
            return y

        if (scratch is not None and _scipy_sparse is not None
                and np.dtype(cdtype) in _SCIPY_DTYPES):
            # BLAS-3 shape: scipy's compiled CSR SpMM streams the matrix once
            # over all k columns.
            vals_c = scratch.cast("csr_values", values, cdtype)
            sp_mat = scratch.memo(
                ("scipy_csr", np.dtype(cdtype)),
                lambda: _scipy_sparse.csr_matrix((vals_c, indices, indptr),
                                                 shape=(n, x.shape[0])))
            y = sp_mat @ np.ascontiguousarray(x_c)
        elif scratch is not None and np.dtype(cdtype) == _HALF:
            # staged fp16 product block (see spmv_csr): bit-identical fp16
            # products from one fp32 gather-multiply, fp16 row reduction —
            # arena-backed like the single-RHS path, with the subnormal-safe
            # rounding
            vals32 = scratch.cast("csr_values_stage", values, _STAGE)
            x32 = halfvec.upcast(x_c, scratch.get("spmm_x32", x_c.shape, _STAGE))
            prods32 = scratch.get("spmm_prod32", (nnz, k), _STAGE)
            np.take(x32, indices, axis=0, out=prods32)
            np.multiply(prods32, vals32[:, None], out=prods32)
            prods = halfvec.round_into(prods32,
                                       scratch.get("spmm_prod", (nnz, k), cdtype),
                                       scratch=scratch)
            y = np.zeros((n, k), dtype=cdtype)
            row_segment_sums(prods, indptr, y)
        else:
            vals_c = (scratch.cast("csr_values", values, cdtype)
                      if scratch is not None
                      else values if values.dtype == cdtype
                      else values.astype(cdtype))
            prods = x_c[indices, :] * vals_c[:, None]
            y = np.zeros((n, k), dtype=cdtype)
            row_segment_sums(prods, indptr, y)
        y = y.astype(out_prec.dtype, copy=False)

        if record and counters_enabled():
            self._record_spmm(mat_prec, vec_prec, out_prec, compute, n, nnz,
                              nnz * BYTES_PER_INDEX + (n + 1) * BYTES_PER_INDEX, k)
        return y

    # ------------------------------------------------------------------ #
    def spmv_ell(self, ell, x, out_precision=None, record=True):
        mat_prec, vec_prec, compute, out_prec = spmv_setup(ell.values.dtype, x.dtype,
                                                           out_precision)
        cdtype = compute.dtype
        plan = ell._rm_plan
        if plan is None:
            plan = _build_ell_plan(ell)
            ell._rm_plan = plan
        scratch = ell.scratch()

        order = plan["order"]
        rm_indptr = plan["rm_indptr"]
        cols_rm = plan["cols_rm"]
        # Row-major value copy (padding included), cached on the instance per
        # compute dtype; idempotent to rebuild, so a benign cross-thread race
        # at worst derives it twice.
        vals_rm = ell._rm_vals.get(cdtype)
        if vals_rm is None:
            vals_rm = ell.values[order].astype(cdtype, copy=False)
            ell._rm_vals[cdtype] = vals_rm

        x_c = x if x.dtype == cdtype else x.astype(cdtype)
        staged = np.dtype(cdtype) == _HALF
        if staged:
            vals32 = ell._rm_vals.get(_STAGE)
            if vals32 is None:
                vals32 = vals_rm.astype(_STAGE)
                ell._rm_vals[_STAGE] = vals32

        st = par_state(ell)
        nt = kernel_threads("spmv", order.size, st, rows=ell.nrows)
        if nt > 1:
            # slabbed over the row-major entry stream: same gather-multiply
            # (-round)-reduceat recipe per output row as the serial pass
            slabs = st.partition(("ell", nt),
                                 lambda: csr_partition(rm_indptr, nt))
            y = np.zeros(ell.nrows, dtype=cdtype)
            if staged:
                x32 = halfvec.upcast(x_c,
                                     scratch.get("spmv_x32", x_c.size, _STAGE),
                                     scratch=scratch)
                par_kernels.spmv_ell_slabs(vals32, cols_rm, x32, y, slabs,
                                           staged=True,
                                           round_into=halfvec.round_into)
            else:
                par_kernels.spmv_ell_slabs(vals_rm, cols_rm, x_c, y, slabs)
        else:
            if staged:
                # staged fp16 products (see spmv_csr): fp32 gather-multiply
                # with a bit-identical fp16 rounding, fp16 row reduction
                x32 = halfvec.upcast(x_c,
                                     scratch.get("spmv_x32", x_c.size, _STAGE),
                                     scratch=scratch)
                prods32 = scratch.get("spmv_prod32", order.size, _STAGE)
                np.take(x32, cols_rm, out=prods32)
                np.multiply(prods32, vals32, out=prods32)
                prods = halfvec.round_into(
                    prods32, scratch.get("spmv_prod", order.size, cdtype),
                    scratch=scratch)
            else:
                prods = scratch.get("spmv_prod", order.size, cdtype)
                np.take(x_c, cols_rm, out=prods)
                np.multiply(prods, vals_rm, out=prods)
            y = np.zeros(ell.nrows, dtype=cdtype)
            row_segment_sums(prods, rm_indptr, y)
        y = y.astype(out_prec.dtype, copy=False)

        if record and counters_enabled():
            stored = ell.nnz
            self._record_spmv(mat_prec, vec_prec, out_prec, compute, ell.nrows,
                              stored, stored * BYTES_PER_INDEX)
        return y

    # ------------------------------------------------------------------ #
    def spmm_ell(self, ell, x, out_precision=None, record=True):
        mat_prec, vec_prec, compute, out_prec = spmv_setup(ell.values.dtype, x.dtype,
                                                           out_precision)
        cdtype = compute.dtype
        k = x.shape[1]
        plan = ell._rm_plan
        if plan is None:
            plan = _build_ell_plan(ell)
            ell._rm_plan = plan
        vals_rm = ell._rm_vals.get(cdtype)
        if vals_rm is None:
            vals_rm = ell.values[plan["order"]].astype(cdtype, copy=False)
            ell._rm_vals[cdtype] = vals_rm

        x_c = x if x.dtype == cdtype else x.astype(cdtype)
        st = par_state(ell)
        nt = kernel_threads("spmm", ell.values.size, st, rows=ell.nrows)
        if nt > 1:
            slabs = st.partition(("ell", nt),
                                 lambda: csr_partition(plan["rm_indptr"], nt))
            y = np.zeros((ell.nrows, k), dtype=cdtype)
            par_kernels.spmm_ell_slabs(vals_rm, plan["cols_rm"], x_c, y, slabs)
        else:
            prods = x_c[plan["cols_rm"], :] * vals_rm[:, None]
            y = np.zeros((ell.nrows, k), dtype=cdtype)
            row_segment_sums(prods, plan["rm_indptr"], y)
        y = y.astype(out_prec.dtype, copy=False)

        if record and counters_enabled():
            stored = ell.nnz
            self._record_spmm(mat_prec, vec_prec, out_prec, compute, ell.nrows,
                              stored, stored * BYTES_PER_INDEX, k)
        return y

    # ------------------------------------------------------------------ #
    # Matrix-free stencil applies.
    #
    # Two execution strategies, both fused (no value/index streams):
    #
    # * **Per-offset slab accumulation** (the general path): one in-place
    #   ``y[dst] += v * x[src]`` grid-slab update per stencil point, with
    #   subtract/add fast paths for ±1 coefficients and a workspace product
    #   buffer otherwise.  Slabs are visited in ascending linear-offset
    #   order (the oracle's column order), so results differ from the
    #   oracle only by its pairwise row reduction — within compute-precision
    #   tolerance, like the other reordering kernels.
    # * **Separable box sweep** (HPCG/HPGMP-class stencils, detected by
    #   ``op.box_separable()``): one 1-D convolution per axis executed as
    #   contiguous flat shifted adds with exact boundary-plane rewrites,
    #   then the diagonal correction.  Collapses the 27 slab passes of a
    #   27-point stencil into ~11 contiguous streams — this is the path
    #   that beats the assembled CSR SpMM at ≥ 64³ grid points.
    # ------------------------------------------------------------------ #
    def _conv_axis_taps(self, op, cur, nxt, axis, taps, kk, cdtype,
                        lo=0, hi=None):
        """The shifted-add tap passes of ``nxt = conv1d(cur)`` along ``axis``,
        restricted to the flat output range ``[lo, hi)``.

        Interior entries come from flat shifted adds (contiguous,
        bandwidth-bound).  Each output element receives its full tap
        sequence inside its owning range — in serial tap order — so any
        span decomposition of ``[0, n)`` produces bit-identical interiors;
        :meth:`_conv_axis_edges` then rewrites the wrap-contaminated edge
        planes exactly (serially, they are ``O(reach)`` planes).
        """
        n_flat = cur.size
        if hi is None:
            hi = n_flat
        stride = int(op.strides[axis]) * kk
        first = True
        for j, w in taps:
            off = j * stride
            glo = max(0, -off)
            ghi = n_flat - max(0, off)
            dlo = min(max(glo, lo), hi)
            dhi = max(min(ghi, hi), dlo)
            dst = nxt[dlo:dhi]
            src = cur[dlo + off:dhi + off]
            wc = cdtype.type(w)
            if first:
                np.multiply(src, wc, out=dst)
                if lo < dlo:
                    nxt[lo:dlo] = 0
                if dhi < hi:
                    nxt[dhi:hi] = 0
                first = False
            elif w == -1.0:
                np.subtract(dst, src, out=dst)
            elif w == 1.0:
                np.add(dst, src, out=dst)
            else:
                dst += wc * src

    def _conv_axis_edges(self, op, cur, nxt, axis, taps, kk, cdtype):
        """Rewrite the contaminated edge planes of the flat conv exactly."""
        dim = op.dims[axis]
        shape = op.dims + ((kk,) if kk > 1 else ())
        curg = cur.reshape(shape)
        nxtg = nxt.reshape(shape)
        # negative taps wrap into the low planes, positive taps into the high
        # ones; rewriting the union of both (an exact recomputation) is safe
        # even where the flat pass happened not to wrap
        reach = max(max(-j for j, _ in taps), max(j for j, _ in taps), 0)
        edge = sorted(set(range(min(reach, dim)))
                      | set(range(max(0, dim - reach), dim)))
        base = [slice(None)] * len(op.dims) + ([slice(None)] if kk > 1 else [])
        for c in edge:
            acc = None
            for j, w in taps:
                cc = c + j
                if cc < 0 or cc >= dim:
                    continue
                sidx = list(base)
                sidx[axis] = cc
                term = cdtype.type(w) * curg[tuple(sidx)]
                acc = term if acc is None else acc + term
            didx = list(base)
            didx[axis] = c
            nxtg[tuple(didx)] = 0 if acc is None else acc

    def _conv_axis_taps_staged(self, op, cur32, nxt32, axis, taps, kk, ws,
                               lo=0, hi=None):
        """Staged-fp16 variant of :meth:`_conv_axis_taps`.

        ``cur32``/``nxt32`` are fp32 arrays holding exactly
        fp16-representable values; every elementary operation runs as one
        SIMD fp32 pass and is immediately snapped back onto the fp16 grid
        with :func:`~repro.backends.halfvec.quantize32` — reproducing the
        direct ``np.float16`` ufunc chain bit for bit without ever touching
        the scalar half-conversion routines.  Sign flips and ``±1`` copies
        are exact and skip the redundant rounding.  The rounding chain is
        per-element, so the ``[lo, hi)`` restriction preserves bit-identity
        exactly as in the direct variant; ``ws`` is the executing thread's
        scratch arena (a partition worker passes its own).
        """
        n_flat = cur32.size
        if hi is None:
            hi = n_flat
        stride = int(op.strides[axis]) * kk
        first = True
        for j, w in taps:
            off = j * stride
            glo = max(0, -off)
            ghi = n_flat - max(0, off)
            dlo = min(max(glo, lo), hi)
            dhi = max(min(ghi, hi), dlo)
            dst = nxt32[dlo:dhi]
            src = cur32[dlo + off:dhi + off]
            w16 = np.float16(w)
            w32 = np.float32(w16)
            rounded = True
            if first:
                if w16 == 1.0:
                    np.copyto(dst, src)          # exact: no rounding needed
                elif w16 == -1.0:
                    np.negative(src, out=dst)    # sign flip is exact
                else:
                    np.multiply(src, w32, out=dst)
                    rounded = False
                if lo < dlo:
                    nxt32[lo:dlo] = 0
                if dhi < hi:
                    nxt32[dhi:hi] = 0
                first = False
            elif w16 == -1.0:
                np.subtract(dst, src, out=dst)
                rounded = False
            elif w16 == 1.0:
                np.add(dst, src, out=dst)
                rounded = False
            else:
                t = ws.get_rows("stencil_tap32_seg", dst.size, (), _STAGE)
                np.multiply(src, w32, out=t)
                halfvec.quantize32(t, scratch=ws)         # round the product
                np.add(dst, t, out=dst)
                rounded = False
            if not rounded:
                halfvec.quantize32(dst, scratch=ws)       # round to fp16 grid

    def _conv_axis_edges_staged(self, op, cur32, nxt32, axis, taps, kk, ws):
        """Exact edge-plane rewrite of the staged conv (same structure as the
        direct path, with the per-operation fp16 roundings made explicit)."""
        dim = op.dims[axis]
        shape = op.dims + ((kk,) if kk > 1 else ())
        curg = cur32.reshape(shape)
        nxtg = nxt32.reshape(shape)
        reach = max(max(-j for j, _ in taps), max(j for j, _ in taps), 0)
        edge = sorted(set(range(min(reach, dim)))
                      | set(range(max(0, dim - reach), dim)))
        base = [slice(None)] * len(op.dims) + ([slice(None)] if kk > 1 else [])
        for c in edge:
            acc = None
            for j, w in taps:
                cc = c + j
                if cc < 0 or cc >= dim:
                    continue
                sidx = list(base)
                sidx[axis] = cc
                w16 = np.float16(w)
                term = np.float32(w16) * curg[tuple(sidx)]
                if abs(w16) != 1.0:
                    term = halfvec.quantize32(np.ascontiguousarray(term))
                if acc is None:
                    acc = term
                else:
                    acc = halfvec.quantize32(acc + term)
            didx = list(base)
            didx[axis] = c
            nxtg[tuple(didx)] = 0 if acc is None else acc

    def _stencil_spans(self, op, kk, nt):
        """Flat-range spans for the separable sweep (grid-point aligned),
        cached on the operator's partition state."""
        st = par_state(op)
        spans = st.partition(("sep", kk, nt),
                             lambda: span_partition(op.nrows * kk, nt, align=kk))
        return spans if len(spans) > 1 else None

    def _apply_stencil_separable_staged(self, op, x_c, kk):
        """fp16 separable sweep on fp32-staged buffers (bit-identical)."""
        ws = op.scratch()
        sep = op.box_separable()
        alpha, taps = sep
        n_flat = op.nrows * kk
        nt = kernel_threads("stencil" if kk == 1 else "stencil_batch", n_flat,
                            par_state(op), rows=op.dims[0])
        spans = self._stencil_spans(op, kk, nt) if nt > 1 else None
        x32 = halfvec.upcast(x_c.reshape(-1),
                             ws.get("stencil_x32", n_flat, _STAGE), scratch=ws)
        buffers = (ws.get("stencil_sep_a32", n_flat, _STAGE),
                   ws.get("stencil_sep_b32", n_flat, _STAGE))
        cur = x32
        for axis, axis_taps in enumerate(taps):
            nxt = buffers[axis % 2]
            if spans is not None:
                # workers sweep disjoint flat ranges of nxt with their own
                # arenas; the per-element rounding chain is unchanged
                par_kernels.run_spans(
                    spans,
                    lambda lo, hi, c=cur, nx=nxt, a=axis, t=axis_taps:
                        self._conv_axis_taps_staged(
                            op, c, nx, a, t, kk, par_kernels.slab_workspace(),
                            lo=lo, hi=hi))
            else:
                self._conv_axis_taps_staged(op, cur, nxt, axis, axis_taps, kk, ws)
            self._conv_axis_edges_staged(op, cur, nxt, axis, axis_taps, kk, ws)
            cur = nxt
        # fresh fp16 output: y = alpha * x + chain, each op rounded; the
        # operands are already on the fp16 grid so the final store is exact
        y = np.empty(n_flat, dtype=_HALF)
        if alpha != 0.0:
            a32 = np.float32(np.float16(alpha))
            t32 = ws.get("stencil_tap32", n_flat, _STAGE)
            np.multiply(x32, a32, out=t32)
            halfvec.quantize32(t32, scratch=ws)           # round alpha·x
            np.add(t32, cur, out=t32)
            halfvec.round_into(t32, y, scratch=ws)        # round the sum
        else:
            np.copyto(y, cur, casting="unsafe")           # exact conversion
        return y

    def _apply_stencil_separable(self, op, x_c, cdtype, kk):
        """Separable sweep; returns the flat result or ``None`` if inapplicable."""
        sep = op.box_separable()
        if sep is None:
            return None
        if np.dtype(cdtype) == _HALF:
            return self._apply_stencil_separable_staged(op, x_c, kk)
        alpha, taps = sep
        ws = op.scratch()
        n_flat = op.nrows * kk
        nt = kernel_threads("stencil" if kk == 1 else "stencil_batch", n_flat,
                            par_state(op), rows=op.dims[0])
        spans = self._stencil_spans(op, kk, nt) if nt > 1 else None
        buffers = (ws.get("stencil_sep_a", n_flat, cdtype),
                   ws.get("stencil_sep_b", n_flat, cdtype))
        cur = x_c.reshape(-1)
        for axis, axis_taps in enumerate(taps):
            nxt = buffers[axis % 2]
            if spans is not None:
                par_kernels.run_spans(
                    spans,
                    lambda lo, hi, c=cur, nx=nxt, a=axis, t=axis_taps:
                        self._conv_axis_taps(op, c, nx, a, t, kk, cdtype,
                                             lo=lo, hi=hi))
            else:
                self._conv_axis_taps(op, cur, nxt, axis, axis_taps, kk, cdtype)
            self._conv_axis_edges(op, cur, nxt, axis, axis_taps, kk, cdtype)
            cur = nxt
        # fresh output (never an arena buffer): y = alpha * x + chain
        y = np.empty(n_flat, dtype=cdtype)
        if alpha != 0.0:
            np.multiply(x_c.reshape(-1), cdtype.type(alpha), out=y)
            np.add(y, cur, out=y)
        else:
            np.copyto(y, cur)
        return y

    def _stencil_slab_span(self, op, xg, yg, vals_c, cdtype, kk, tail, a0, b0):
        """One worker's outermost-axis plane range ``[a0, b0)`` of the
        per-offset slab accumulation: the serial offset loop with every
        destination slab clipped to the owned planes (and its source slab
        shifted identically), so each grid point accumulates its offsets in
        exactly the serial order."""
        ws = par_kernels.slab_workspace()
        for pos, dst, src in op.slice_plan():
            d0 = dst[0]
            lo0 = max(d0.start, a0)
            hi0 = min(d0.stop, b0)
            if lo0 >= hi0:
                continue
            shift = src[0].start - d0.start
            v = vals_c[pos]
            acc = yg[(slice(lo0, hi0),) + dst[1:] + tail]
            term = xg[(slice(lo0 + shift, hi0 + shift),) + src[1:] + tail]
            if v == -1.0:
                np.subtract(acc, term, out=acc)
            elif v == 1.0:
                np.add(acc, term, out=acc)
            else:
                tmp = ws.get_rows("par_stencil_prod", term.size, (),
                                  cdtype).reshape(term.shape)
                np.multiply(term, v, out=tmp)
                np.add(acc, tmp, out=acc)

    def _apply_stencil_slabs(self, op, x_c, cdtype, kk):
        """Per-offset slab accumulation (the general fused path)."""
        vals_c = op.values.astype(cdtype, copy=False)
        ws = op.scratch()
        y = np.zeros(op.nrows * kk, dtype=cdtype)
        tail = (slice(None),) if kk > 1 else ()
        shape = op.dims + ((kk,) if kk > 1 else ())
        xg = x_c.reshape(shape)
        yg = y.reshape(shape)
        st = par_state(op)
        nt = kernel_threads("stencil" if kk == 1 else "stencil_batch",
                            op.nrows * kk, st, rows=op.dims[0])
        if nt > 1:
            spans = st.partition(("slab0", nt),
                                 lambda: span_partition(op.dims[0], nt))
            if len(spans) > 1:
                par_kernels.run_spans(
                    spans,
                    lambda a0, b0: self._stencil_slab_span(
                        op, xg, yg, vals_c, cdtype, kk, tail, a0, b0))
                return y
        for pos, dst, src in op.slice_plan():
            v = vals_c[pos]
            acc = yg[dst + tail]
            term = xg[src + tail]
            if v == -1.0:
                np.subtract(acc, term, out=acc)
            elif v == 1.0:
                np.add(acc, term, out=acc)
            else:
                tmp = ws.get("stencil_prod", term.shape, cdtype)
                np.multiply(term, v, out=tmp)
                np.add(acc, tmp, out=acc)
        return y

    def apply_stencil(self, op, x, out_precision=None, record=True):
        mat_prec, vec_prec, compute, out_prec = spmv_setup(op.values.dtype, x.dtype,
                                                           out_precision)
        cdtype = compute.dtype
        x_c = np.ascontiguousarray(x, dtype=cdtype)
        y = self._apply_stencil_separable(op, x_c, cdtype, 1)
        if y is None:
            y = self._apply_stencil_slabs(op, x_c, cdtype, 1)
        y = y.astype(out_prec.dtype, copy=False)
        if record and counters_enabled():
            self._record_stencil(mat_prec, vec_prec, out_prec, compute,
                                 op.nrows, op.nnz, op.npoints)
        return y

    def apply_stencil_batch(self, op, x, out_precision=None, record=True):
        """Batched stencil apply: the ``k`` columns ride along as the
        fastest-varying axis of every slab/stream — the matrix-free analogue
        of SpMM — with per-column counter parity and bit-identity between a
        batched apply and ``k`` single applies."""
        mat_prec, vec_prec, compute, out_prec = spmv_setup(op.values.dtype, x.dtype,
                                                           out_precision)
        cdtype = compute.dtype
        k = x.shape[1]
        x_c = np.ascontiguousarray(x, dtype=cdtype)
        y = self._apply_stencil_separable(op, x_c, cdtype, k)
        if y is None:
            y = self._apply_stencil_slabs(op, x_c, cdtype, k)
        y = y.reshape(op.nrows, k).astype(out_prec.dtype, copy=False)
        if record and counters_enabled():
            self._record_stencil(mat_prec, vec_prec, out_prec, compute,
                                 op.nrows, op.nnz, op.npoints, k)
        return y

    # ------------------------------------------------------------------ #
    def preferred_assembled_format(self, precision):
        """Pin CSR when scipy's compiled matvec/SpMM handles the dtype —
        the fused CSR pass beats the ELL gather path regardless of padding."""
        return "csr" if np.dtype(precision.dtype) in _SCIPY_DTYPES else None

    # ------------------------------------------------------------------ #
    def _trsv_plan_and_vals(self, factor, cdtype):
        """Per-level gather plan + dtype-cast per-level values (cached).

        Off-diagonal values and the inverse diagonal are pre-gathered per
        level, cached per compute dtype on the factor (immutable derived
        data; a cross-thread race at worst rebuilds identical arrays).
        """
        plan = factor._fast_plan
        if plan is None:
            plan = _build_trsv_plan(factor)
            factor._fast_plan = plan
        cached = factor._fast_vals.get(cdtype)
        if cached is None:
            off_vals = (factor.off_vals if factor.off_vals.dtype == cdtype
                        else factor.off_vals.astype(cdtype))
            inv_diag = factor.inv_diag.astype(cdtype, copy=False)
            level_vals = [None if entry[1] is None else off_vals[entry[1]]
                          for entry in plan]
            level_inv = [inv_diag[entry[0]] for entry in plan]
            cached = (level_vals, level_inv)
            factor._fast_vals[cdtype] = cached
        return plan, cached[0], cached[1]

    def _trsv_par_levels(self, factor, plan, kernel):
        """Per-level chunk decompositions for a within-level parallel solve.

        ``None`` disables parallelism for this call; otherwise a list
        aligned with ``plan`` whose entries are either ``None`` (level runs
        the serial code — too narrow for a barrier) or the level's chunk
        list.  Wide levels are exactly the fused block-diagonal factors'
        regime: level ``i`` of every block merges into one schedule row,
        the thread-per-block analogue the paper executes.
        """
        st = par_state(factor)
        nt = kernel_threads(kernel, factor.off_vals.size, st,
                            rows=factor.nrows)
        if nt <= 1:
            return None
        min_rows = 1 if forced_threads() is not None else MIN_LEVEL_ROWS
        levels = st.partition(
            ("trsv", nt, min_rows),
            lambda: [None if entry[1] is None
                     else level_partition(factor.off_rowptr, entry[0], nt,
                                          min_rows)
                     for entry in plan])
        if all(chunks is None for chunks in levels):
            return None
        return levels

    def trsv(self, factor, b, out_precision=None, record=True):
        vec_prec = precision_of_dtype(b.dtype)
        compute = promote(factor.precision, vec_prec)
        out_prec = as_precision(out_precision) if out_precision is not None else vec_prec
        cdtype = compute.dtype

        plan, level_vals, level_inv = self._trsv_plan_and_vals(factor, cdtype)
        par_levels = self._trsv_par_levels(factor, plan, "trsv")

        x = np.zeros(factor.nrows, dtype=cdtype)
        b_c = b if b.dtype == cdtype else b.astype(cdtype)

        for i, ((rows, gather_idx, gather_cols, red_offsets, nonempty), lv,
                inv) in enumerate(zip(plan, level_vals, level_inv)):
            if par_levels is not None and par_levels[i] is not None:
                par_kernels.trsv_level_chunks(x, b_c, rows, gather_cols, lv,
                                              inv, par_levels[i])
                continue
            if gather_idx is None:
                x[rows] = b_c[rows] * inv
                continue
            prods = lv * x[gather_cols]
            if nonempty is None:
                sums = np.add.reduceat(prods, red_offsets)
            else:
                sums = np.zeros(rows.size, dtype=cdtype)
                sums[nonempty] = np.add.reduceat(prods, red_offsets)
            x[rows] = (b_c[rows] - sums) * inv

        result = x.astype(out_prec.dtype, copy=False)
        if record and counters_enabled():
            self._record_trsv(factor, vec_prec, out_prec, compute)
        return result

    # ------------------------------------------------------------------ #
    def trsm(self, factor, b, out_precision=None, record=True):
        vec_prec = precision_of_dtype(b.dtype)
        compute = promote(factor.precision, vec_prec)
        out_prec = as_precision(out_precision) if out_precision is not None else vec_prec
        cdtype = compute.dtype
        k = b.shape[1]

        plan, level_vals, level_inv = self._trsv_plan_and_vals(factor, cdtype)
        par_levels = self._trsv_par_levels(factor, plan, "trsm")

        # One level sweep serves all k columns: the per-level index arithmetic
        # and Python overhead are amortized k-fold, and the gather/multiply/
        # reduceat run on (segment, k) blocks instead of k separate vectors.
        x = np.zeros((factor.nrows, k), dtype=cdtype)
        b_c = b if b.dtype == cdtype else b.astype(cdtype)

        for i, ((rows, gather_idx, gather_cols, red_offsets, nonempty), lv,
                inv) in enumerate(zip(plan, level_vals, level_inv)):
            if par_levels is not None and par_levels[i] is not None:
                par_kernels.trsm_level_chunks(x, b_c, rows, gather_cols, lv,
                                              inv, par_levels[i])
                continue
            if gather_idx is None:
                x[rows] = b_c[rows] * inv[:, None]
                continue
            prods = x[gather_cols, :] * lv[:, None]
            if nonempty is None:
                sums = np.add.reduceat(prods, red_offsets)
            else:
                sums = np.zeros((rows.size, k), dtype=cdtype)
                sums[nonempty] = np.add.reduceat(prods, red_offsets)
            x[rows] = (b_c[rows] - sums) * inv[:, None]

        result = x.astype(out_prec.dtype, copy=False)
        if record and counters_enabled():
            self._record_trsm(factor, vec_prec, out_prec, compute, k)
        return result

    # ------------------------------------------------------------------ #
    def orthogonalize(self, basis, j, w, vec_prec: Precision, scratch=None,
                      record=True):
        dtype = vec_prec.dtype
        n = w.size
        v_rows = basis[:j + 1]
        h = v_rows @ w                       # (j+1,) dots, in the level dtype
        if scratch is not None:
            # w is consumed: the projection is subtracted in place
            tmp = scratch.get("gs_update", n, dtype)
            np.matmul(h, v_rows, out=tmp)
            np.subtract(w, tmp, out=w)
        else:
            w = w - h @ v_rows
        # norm computed as the reference does: dot in the operand precision,
        # square root in fp64
        h_norm = float(np.sqrt(np.float64(np.dot(w, w))))
        h_col = np.zeros(j + 2, dtype=dtype)
        h_col[:j + 1] = h.astype(dtype, copy=False)
        h_col[j + 1] = dtype.type(h_norm)
        if record:
            self._record_gram_schmidt(vec_prec, n, j + 1)
        return h_col, w, h_norm

    def combine(self, z_vectors, y, k, vec_prec: Precision, record=True):
        dtype = vec_prec.dtype
        n = z_vectors.shape[1]
        yk = y[:k].astype(dtype, copy=False)
        z = (yk @ z_vectors[:k]).astype(dtype, copy=False)
        if record:
            self._record_combine(vec_prec, n, k)
        return z

    # ------------------------------------------------------------------ #
    # Fused solve-plan kernels (vectorized overrides; identical counters)
    # ------------------------------------------------------------------ #
    def orthonormalize(self, basis, j, w, vec_prec: Precision, scratch=None,
                       record=True):
        h_col, w, h_norm = self.orthogonalize(basis, j, w, vec_prec,
                                              scratch=scratch, record=record)
        normalized = h_norm != 0.0 and np.isfinite(h_norm)
        if normalized:
            # the unfused scal's arithmetic (reciprocal rounded to the level
            # dtype, multiply in that dtype), written straight into the basis
            # arena — no fresh vector, no row copy
            dtype = vec_prec.dtype
            np.multiply(w, dtype.type(1.0 / h_norm), out=basis[j + 1])
            if record:
                self._record_scal(vec_prec, w.size)
        return h_col, h_norm, normalized

    def _residual_update_spans(self, v, az, cdtype, out_prec, staged, nt):
        """Thread-parallel elementwise residual: disjoint row spans, each
        computed with the serial recipe (direct subtract or the staged-fp16
        upcast-subtract-round chain on the worker's own arena)."""
        spans = span_partition(v.shape[0], nt)
        tail = v.shape[1:]
        if staged:
            r = np.empty(v.shape, dtype=_HALF)

            def task(lo, hi):
                ws = par_kernels.slab_workspace()
                v32 = halfvec.upcast(
                    v[lo:hi], ws.get_rows("par_resid_v32", hi - lo, tail, _STAGE))
                az32 = halfvec.upcast(
                    az[lo:hi], ws.get_rows("par_resid_az32", hi - lo, tail, _STAGE))
                halfvec.binop_round(np.subtract, v32, az32, out16=r[lo:hi],
                                    scratch=ws)
        else:
            v_c = v if v.dtype == cdtype else v.astype(cdtype)
            az_c = az if az.dtype == cdtype else az.astype(cdtype)
            r = np.empty(v.shape, dtype=cdtype)

            def task(lo, hi):
                np.subtract(v_c[lo:hi], az_c[lo:hi], out=r[lo:hi])

        par_kernels.run_spans(spans, task)
        return r.astype(out_prec.dtype, copy=False)

    def residual_update(self, v, az, out_precision=None, record=True,
                        scratch=None):
        pv = precision_of_dtype(v.dtype)
        paz = precision_of_dtype(az.dtype)
        compute = promote(pv, paz)
        out_prec = as_precision(out_precision) if out_precision is not None else pv
        cdtype = compute.dtype
        staged = np.dtype(cdtype) == _HALF and out_prec.dtype == _HALF
        nt = kernel_threads("axpy", v.size, None, rows=v.shape[0])
        if nt > 1:
            r = self._residual_update_spans(v, az, cdtype, out_prec, staged, nt)
        elif staged:
            # v − az == (−1)·az + v bitwise (negation is exact, addition is
            # commutative), staged through fp32
            if scratch is not None:
                v32 = halfvec.upcast(v, scratch.get("resid_v32", v.shape, _STAGE),
                                     scratch=scratch)
                az32 = halfvec.upcast(az, scratch.get("resid_az32", az.shape, _STAGE),
                                      scratch=scratch)
            else:
                v32, az32 = halfvec.upcast(v), halfvec.upcast(az)
            r = halfvec.binop_round(np.subtract, v32, az32, scratch=scratch)
        else:
            v_c = v if v.dtype == cdtype else v.astype(cdtype)
            az_c = az if az.dtype == cdtype else az.astype(cdtype)
            r = np.subtract(v_c, az_c).astype(out_prec.dtype, copy=False)
        if record:
            self._record_axpy(paz, pv, out_prec, compute, v.shape[0],
                              v.shape[1] if v.ndim == 2 else 1)
        return r

    def residual_update_batch(self, v, az, out_precision=None, record=True,
                              scratch=None):
        return self.residual_update(v, az, out_precision=out_precision,
                                    record=record, scratch=scratch)

    def weighted_update(self, z, mr, omega, vec_prec: Precision, scratch=None,
                        record=True):
        dtype = vec_prec.dtype
        pz = precision_of_dtype(z.dtype)
        pm = precision_of_dtype(mr.dtype)
        compute = promote(pz, pm)
        if np.dtype(compute.dtype) == _HALF and np.dtype(dtype) == _HALF:
            result = halfvec.staged_axpy(omega, mr, z, scratch=scratch)
        else:
            # in-place consume of z when dtypes line up (the documented
            # contract); same operation order as vo.axpy
            cdtype = compute.dtype
            alpha_c = cdtype.type(omega)
            if z.dtype == cdtype == np.dtype(dtype) and mr.dtype == cdtype:
                if scratch is not None:
                    t = scratch.get("wupd_t", mr.size, cdtype)
                    np.multiply(mr, alpha_c, out=t)
                else:
                    t = alpha_c * mr
                np.add(t, z, out=z)
                result = z
            else:
                mr_c = mr if mr.dtype == cdtype else mr.astype(cdtype)
                z_c = z if z.dtype == cdtype else z.astype(cdtype)
                result = (alpha_c * mr_c + z_c).astype(dtype, copy=False)
        if record:
            self._record_axpy(pm, pz, vec_prec, compute, mr.size)
        return result

    def spmv_axpy(self, values, indices, indptr, x, y, out_precision=None,
                  record=True, scratch=None, par=None):
        mat_prec, vec_prec, compute, out_prec = spmv_setup(values.dtype, x.dtype,
                                                           out_precision)
        cdtype = compute.dtype
        n = indptr.size - 1
        nnz = values.size
        fusable = (scratch is not None and _scipy_sparse is not None
                   and _scipy_sparsetools is not None
                   and np.dtype(cdtype) in _SCIPY_DTYPES
                   and out_prec.dtype == np.dtype(cdtype)
                   and y.dtype == np.dtype(cdtype)
                   and indptr.dtype == indices.dtype)
        if not fusable:
            # compose (the oracle order); both halves use their own fast
            # paths — including their partitioned variants
            ax = self.spmv_csr(values, indices, indptr, x,
                               out_precision=out_precision, record=record,
                               scratch=scratch, par=par)
            return self.residual_update(y, ax, out_precision=out_precision,
                                        record=record, scratch=scratch)
        # one pass: r starts as a copy of y and scipy's compiled matvec
        # accumulates (−A)·x into it — no intermediate product vector.
        # Negated values are exact, so each row contributes −Σ aᵢⱼxⱼ with the
        # usual reordering-tolerance agreement.
        vals_c = scratch.cast("csr_values", values, cdtype)
        neg_vals = scratch.memo(("csr_values_neg", np.dtype(cdtype)),
                                lambda: -vals_c)
        x_c = x if x.dtype == cdtype else x.astype(cdtype)
        r = y.astype(cdtype, order="C", copy=True)
        nt = kernel_threads("spmv", nnz, par, rows=n) if par is not None else 1
        if nt > 1:
            # same compiled accumulation per row slab (r rows are disjoint)
            par_kernels.csr_matvec_slabs(x.size, neg_vals, indices, r, x_c,
                                         self._csr_slabs(par, indptr, nt))
        else:
            _scipy_sparsetools.csr_matvec(n, x.size, indptr, indices, neg_vals,
                                          x_c, r)
        if record and counters_enabled():
            self._record_spmv(mat_prec, vec_prec, out_prec, compute, n, nnz,
                              nnz * BYTES_PER_INDEX + (n + 1) * BYTES_PER_INDEX)
            self._record_axpy(out_prec, precision_of_dtype(y.dtype), out_prec,
                              promote(out_prec, precision_of_dtype(y.dtype)), n)
        return r

    def spmm_axpy(self, values, indices, indptr, x, y, out_precision=None,
                  record=True, scratch=None, par=None):
        mat_prec, vec_prec, compute, out_prec = spmv_setup(values.dtype, x.dtype,
                                                           out_precision)
        cdtype = compute.dtype
        n = indptr.size - 1
        nnz = values.size
        k = x.shape[1]
        fusable = (scratch is not None and _scipy_sparse is not None
                   and _scipy_sparsetools is not None
                   and np.dtype(cdtype) in _SCIPY_DTYPES
                   and out_prec.dtype == np.dtype(cdtype)
                   and y.dtype == np.dtype(cdtype)
                   and indptr.dtype == indices.dtype)
        if not fusable:
            az = self.spmm_csr(values, indices, indptr, x,
                               out_precision=out_precision, record=record,
                               scratch=scratch, par=par)
            return self.residual_update_batch(y, az, out_precision=out_precision,
                                              record=record, scratch=scratch)
        vals_c = scratch.cast("csr_values", values, cdtype)
        neg_vals = scratch.memo(("csr_values_neg", np.dtype(cdtype)),
                                lambda: -vals_c)
        x_c = np.ascontiguousarray(x, dtype=cdtype)
        r = y.astype(cdtype, order="C", copy=True)
        nt = kernel_threads("spmm", nnz, par, rows=n) if par is not None else 1
        if nt > 1:
            par_kernels.csr_matvecs_slabs(x.shape[0], k, neg_vals, indices, r,
                                          x_c, self._csr_slabs(par, indptr, nt))
        else:
            _scipy_sparsetools.csr_matvecs(n, x.shape[0], k, indptr, indices,
                                           neg_vals, x_c.ravel(), r.ravel())
        if record and counters_enabled():
            self._record_spmm(mat_prec, vec_prec, out_prec, compute, n, nnz,
                              nnz * BYTES_PER_INDEX + (n + 1) * BYTES_PER_INDEX, k)
            py = precision_of_dtype(y.dtype)
            self._record_axpy(out_prec, py, out_prec, promote(out_prec, py), n, k)
        return r

    # ------------------------------------------------------------------ #
    def ilu0_factor(self, matrix, alpha: float = 1.0, breakdown_shift: float = 1e-12):
        n, indptr, indices, values, shift = ilu0_setup(matrix, alpha, breakdown_shift)
        if n == 0 or values.size == 0:
            return split_lower_upper(values, indices, indptr, n)
        from ..sparse.triangular import compute_levels

        levels = compute_levels(indices, indptr, lower=True)
        # Chain-structured patterns (levels ≈ rows) gain nothing from batching
        # rows — each vectorized pass would touch one row.  The row loop is
        # the faster shape there; both paths produce identical factors.
        if n < 256 or 4 * len(levels) > n:
            self._ilu0_eliminate_rows(n, indptr, indices, values, shift)
        else:
            self._ilu0_eliminate_levels(n, indptr, indices, values, shift, levels)
        return split_lower_upper(values, indices, indptr, n)

    def _ilu0_eliminate_levels(self, n, indptr, indices, values, shift, levels):
        """Level-scheduled IKJ elimination: one vectorized pass per
        (dependency level, elimination step) instead of a Python loop per row.

        Rows of one level are mutually independent (their lower-pattern
        dependencies all live in earlier levels), so their eliminations batch:
        step ``j`` divides every active row's ``j``-th lower entry by its
        (final) pivot and scatters the pivot row's strictly-upper segment into
        the row's own pattern — exactly the per-element arithmetic of the row
        loop, in the same ascending-``k`` order, writing disjoint positions.
        The factors are therefore bit-identical to the serial elimination.
        """
        indptr64 = indptr.astype(np.int64)
        cols64 = indices.astype(np.int64)
        row_counts = np.diff(indptr64)
        rows = np.repeat(np.arange(n, dtype=np.int64), row_counts)
        lower_mask = cols64 < rows
        nlower = np.bincount(rows[lower_mask], minlength=n)
        has_diag = np.zeros(n, dtype=bool)
        has_diag[rows[cols64 == rows]] = True
        # structural, so precomputable: first strictly-upper position of each
        # row (past its lower entries and stored diagonal, when present)
        upper_start = indptr64[:-1] + nlower + has_diag
        diag_value = np.zeros(n, dtype=np.float64)
        zero_pivot = shift if shift != 0.0 else 1.0

        for level_rows in levels:
            level_rows = level_rows.astype(np.int64)
            nl = nlower[level_rows]
            max_nl = int(nl.max()) if nl.size else 0
            if max_nl:
                # level-wide sorted key array (row ordinal ⊕ column) so one
                # searchsorted locates update targets across all rows at once
                lcounts = row_counts[level_rows]
                flat_pos = (np.repeat(indptr64[level_rows], lcounts)
                            + segment_ramp(lcounts))
                ords = np.arange(level_rows.size, dtype=np.int64)
                level_keys = np.repeat(ords * n, lcounts) + cols64[flat_pos]
                last = level_keys.size - 1
                for j in range(max_nl):
                    act = nl > j
                    pos_lik = indptr64[level_rows[act]] + j
                    k = cols64[pos_lik]
                    pivot = diag_value[k]
                    pivot = np.where(pivot == 0.0, zero_pivot, pivot)
                    lik = values[pos_lik] / pivot
                    values[pos_lik] = lik
                    ucnt = indptr64[k + 1] - upper_start[k]
                    if int(ucnt.sum()) == 0:
                        continue
                    gidx = np.repeat(upper_start[k], ucnt) + segment_ramp(ucnt)
                    qkeys = np.repeat(ords[act] * n, ucnt) + cols64[gidx]
                    pos = np.searchsorted(level_keys, qkeys)
                    np.minimum(pos, last, out=pos)
                    valid = level_keys[pos] == qkeys
                    if valid.any():
                        # targets are unique within a step (distinct columns
                        # per row, disjoint rows), so plain fancy-index
                        # subtraction applies each update exactly once
                        values[flat_pos[pos[valid]]] -= (
                            np.repeat(lik, ucnt)[valid] * values[gidx][valid])
            # finalize this level's pivots (dependents read them next level)
            dmask = has_diag[level_rows]
            drows = level_rows[dmask]
            if drows.size:
                dpos = indptr64[drows] + nlower[drows]
                dval = values[dpos]
                bad = (dval == 0.0) | (np.abs(dval) < shift)
                if bad.any():
                    dval = np.where(bad, np.where(dval >= 0.0, shift, -shift),
                                    dval)
                    values[dpos] = dval
                diag_value[drows] = dval
            if not dmask.all():
                diag_value[level_rows[~dmask]] = zero_pivot

    def _ilu0_eliminate_rows(self, n, indptr, indices, values, shift):
        diag_value = np.zeros(n, dtype=np.float64)
        upper_start = np.zeros(n, dtype=np.int64)

        for i in range(n):
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            cols_i = indices[lo:hi]
            wrow = values[lo:hi]             # in-place row segment workspace
            nlower = int(np.searchsorted(cols_i, i))
            last = cols_i.size - 1

            for p in range(nlower):
                k = int(cols_i[p])
                pivot = diag_value[k]
                if pivot == 0.0:
                    pivot = shift if shift != 0.0 else 1.0
                lik = wrow[p] / pivot
                wrow[p] = lik
                # update row i against the strictly-upper segment of row k;
                # only columns present in row i's (sorted) pattern receive it
                ks, ke = int(upper_start[k]), int(indptr[k + 1])
                if ks < ke:
                    ucols = indices[ks:ke]
                    pos = np.searchsorted(cols_i, ucols)
                    np.minimum(pos, last, out=pos)
                    valid = cols_i[pos] == ucols
                    if valid.any():
                        wrow[pos[valid]] -= lik * values[ks:ke][valid]

            # pivot handling / upper-start bookkeeping (identical to reference)
            if nlower <= last and cols_i[nlower] == i:
                dval = wrow[nlower]
                if dval == 0.0 or abs(dval) < shift:
                    dval = shift if dval >= 0.0 else -shift
                    wrow[nlower] = dval
                diag_value[i] = dval
                upper_start[i] = lo + nlower + 1
            else:
                diag_value[i] = shift if shift != 0.0 else 1.0
                upper_start[i] = lo + nlower
