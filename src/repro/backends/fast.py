"""Fast backend: vectorized kernels with workspace reuse and batched counters.

Same precision-emulation semantics as the ``reference`` backend — arithmetic in
the promoted precision, results rounded to the requested output precision —
but with the remaining Python-level loops replaced by single vectorized
passes:

* **CSR SpMV** reuses a per-matrix gather/product buffer and a cached cast of
  the value array per compute dtype (one ``values.astype`` for the lifetime of
  the matrix instead of one per call).
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
* **One kernel per operation**: every product, solve and update takes a
  vector or an ``(n, k)`` block.  A block streams the matrix / the level
  schedule once over all ``k`` right-hand sides — scipy's compiled CSR SpMM
  for fp32/fp64, gather-multiply-``reduceat`` on ``(segment, k)`` blocks
  otherwise — bit-identical to ``k`` vector calls, column by column.
  Per-row arrays get ``[:, None]`` only for a block, decided once per call.
* **fp16** kernels stage through fp32 (:mod:`~repro.backends.halfvec`),
  bit-identical to the direct fp16 ufunc chains: SpMV/SpMM products are
  rounded to fp16 on the fp32 grid and summed in fp32, each row sum rounded
  once; triangular solves past the :data:`STAGED_LEVEL_GATHERS` width gate
  carry an fp32 solution across levels.

Counter totals (bytes, flops, kernel calls) are identical to the reference;
they are recorded in one batched call per logical group, and skipped entirely
when :func:`repro.perf.counters.counters_enabled` is off.

**Thread safety**: one matrix, factor, operator or plan may be used from
several threads at once (dispatcher workers share cached solvers):

* every kernel temporary comes from the *calling* thread's arena
  (:class:`~repro.backends.workspace.ThreadLocalWorkspace`);
* per-object caches (``_fast_vals``, gather plans) are
  immutable-once-built derived data — a benign cross-thread build race at
  worst derives them twice;
* counters are thread-local.

``tests/test_plans_alloc.py`` hammers one plan, solver and factor from four
threads and requires every concurrent result to be bit-identical to serial.
"""

from __future__ import annotations

import numpy as np

from ..perf.counters import counters_enabled
from ..precision import BYTES_PER_INDEX, Precision, as_precision, precision_of_dtype, promote
from . import halfvec
from .base import (
    KernelBackend,
    columns,
    ilu0_setup,
    per_row,
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

#: an fp16 triangular solve stages its levels through fp32 (exact fp32
#: products, fp32 row sums rounded once — bitwise equal to the direct fp16
#: recipe) when its factor averages at least this many gathers per level.
#: Staging adds about ten vectorized calls per level (the quantizer's eight
#: passes among them) and removes the scalar fp16 multiply and reduction
#: over the level's gathers, whose cost grows with the share of
#: fp16-subnormal products.  Measured on 2-CPU x86-64 with real M inputs:
#: the hard operator's fused block-ILU(0) factors (~400 gathers per level,
#: ~25% subnormal products) solve ~1.5x faster staged; the tiny Table-2
#: surrogates (<= 131 gathers per level, mostly normal-range products) and
#: chain factors (one row per level) solve 2-3x slower staged.  The gate is
#: structural but the payoff is data-dependent: a wide factor whose products
#: stay normal-range (hpcg_7_7_7 at ``small``: ~330 gathers per level, ~4%
#: subnormal) still solves ~1.5x slower staged.  Decided once per factor and
#: dtype, when its level values are cached.  The gate applies to ``fast``
#: only: the ``native`` engine's compiled solve has no per-level call cost
#: and runs one recipe for every factor width.
STAGED_LEVEL_GATHERS = 256


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
        # native index width: numpy converts narrower index arrays on every
        # gather/scatter otherwise
        rows = rows.astype(np.intp, copy=False)
        starts = rowptr[rows]
        counts = rowptr[rows + 1] - starts
        total = int(counts.sum())
        if total:
            offsets = np.cumsum(counts) - counts
            gather_idx = np.repeat(starts, counts) + segment_ramp(counts)
            gather_cols = cols[gather_idx].astype(np.intp, copy=False)
            nonempty = counts > 0
            if nonempty.all():
                plan.append((rows, gather_idx, gather_cols, offsets, None))
            else:
                plan.append((rows, gather_idx, gather_cols, offsets[nonempty],
                             nonempty))
        else:
            plan.append((rows, None, None, None, None))
    return plan


def _level_views(arrays: list, ndim: int) -> list:
    """Per-level row arrays shaped for a vector (as cached) or an ``(n, k)``
    block (``[:, None]`` views) — decided once per solve, outside the level
    loop."""
    if ndim == 1:
        return arrays
    return [None if a is None else a[:, None] for a in arrays]


class FastBackend(KernelBackend):
    """Vectorized kernels with preallocated workspaces (the default engine)."""

    name = "fast"

    # ------------------------------------------------------------------ #
    def spmv_csr(self, values, indices, indptr, x, out_precision=None,
                 record=True, scratch=None):
        mat_prec, vec_prec, compute, out_prec = spmv_setup(values.dtype, x.dtype,
                                                           out_precision)
        cdtype = compute.dtype
        n = indptr.size - 1
        nnz = values.size
        tail = x.shape[1:]
        x_c = x if x.dtype == cdtype else x.astype(cdtype)

        if (scratch is not None and _scipy_sparse is not None
                and np.dtype(cdtype) in _SCIPY_DTYPES):
            # scipy's compiled csr matvec / SpMM: one fused pass streaming the
            # matrix once over all columns, no product array.  Each row sum
            # starts from +0 and adds a_ij·x_j one by one in stored order,
            # every product and add rounded once in the compute dtype (no
            # fused multiply-add) — the order native's compiled products pin;
            # the reference sums pairwise, so the two agree to tolerance.
            vals_c = scratch.cast("csr_values", values, cdtype)
            sp_mat = scratch.memo(
                ("scipy_csr", np.dtype(cdtype)),
                lambda: _scipy_sparse.csr_matrix((vals_c, indices, indptr),
                                                 shape=(n, x.shape[0])))
            y = sp_mat @ np.ascontiguousarray(x_c)
        elif scratch is not None and np.dtype(cdtype) == _HALF:
            # fp16 staged through fp32: exact fp32 products (fp16 × fp16
            # fits), each rounded to fp16 in place, fp32 row sums rounded
            # once — bit-identical to fp16 products reduced by fp16 reduceat
            vals32 = scratch.cast("csr_values_stage", values, _STAGE)
            x32 = halfvec.upcast(x_c, scratch.get("spmv_x32", x_c.shape, _STAGE))
            prods32 = scratch.get("spmv_prod32", (nnz,) + tail, _STAGE)
            x32.take(indices, axis=0, out=prods32)
            np.multiply(prods32, per_row(vals32, x.ndim), out=prods32)
            y = halfvec.segment_sums_round(prods32, indptr,
                                           np.empty((n,) + tail, dtype=cdtype),
                                           scratch=scratch)
        else:
            if scratch is not None:
                vals_c = scratch.cast("csr_values", values, cdtype)
                prods = scratch.get("spmv_prod", (nnz,) + tail, cdtype)
                x_c.take(indices, axis=0, out=prods)
                np.multiply(prods, per_row(vals_c, x.ndim), out=prods)
            else:
                vals_c = values if values.dtype == cdtype else values.astype(cdtype)
                prods = x_c[indices] * per_row(vals_c, x.ndim)
            y = np.zeros((n,) + tail, dtype=cdtype)
            row_segment_sums(prods, indptr, y)
        y = y.astype(out_prec.dtype, copy=False)

        if record and counters_enabled():
            self._record_spmv(mat_prec, vec_prec, out_prec, compute, n, nnz,
                              nnz * BYTES_PER_INDEX + (n + 1) * BYTES_PER_INDEX,
                              columns(x))
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
    def _conv_axis_taps(self, op, cur, nxt, axis, taps, kk, cdtype):
        """The shifted-add tap passes of ``nxt = conv1d(cur)`` along ``axis``.

        Interior entries come from flat shifted adds (contiguous,
        bandwidth-bound), each output element receiving its taps in order;
        :meth:`_conv_axis_edges` then rewrites the wrap-contaminated edge
        planes exactly (they are ``O(reach)`` planes).
        """
        n_flat = cur.size
        stride = int(op.strides[axis]) * kk
        first = True
        for j, w in taps:
            off = j * stride
            dlo = min(max(0, -off), n_flat)
            dhi = max(n_flat - max(0, off), dlo)
            dst = nxt[dlo:dhi]
            src = cur[dlo + off:dhi + off]
            wc = cdtype.type(w)
            if first:
                np.multiply(src, wc, out=dst)
                nxt[:dlo] = 0
                nxt[dhi:] = 0
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

    def _conv_axis_taps_staged(self, op, cur32, nxt32, axis, taps, kk, ws):
        """Staged-fp16 variant of :meth:`_conv_axis_taps`.

        ``cur32``/``nxt32`` are fp32 arrays holding exactly
        fp16-representable values; every elementary operation runs as one
        SIMD fp32 pass and is immediately snapped back onto the fp16 grid
        with :func:`~repro.backends.halfvec.quantize32` — reproducing the
        direct ``np.float16`` ufunc chain bit for bit without ever touching
        the scalar half-conversion routines.  Sign flips and ``±1`` copies
        are exact and skip the redundant rounding.  ``ws`` is the operator's
        scratch arena.
        """
        n_flat = cur32.size
        stride = int(op.strides[axis]) * kk
        first = True
        for j, w in taps:
            off = j * stride
            dlo = min(max(0, -off), n_flat)
            dhi = max(n_flat - max(0, off), dlo)
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
                nxt32[:dlo] = 0
                nxt32[dhi:] = 0
                first = False
            elif w16 == -1.0:
                np.subtract(dst, src, out=dst)
                rounded = False
            elif w16 == 1.0:
                np.add(dst, src, out=dst)
                rounded = False
            else:
                t = ws.get("stencil_tap32_seg", dst.size, _STAGE)
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

    def _apply_stencil_separable_staged(self, op, x_c, kk):
        """fp16 separable sweep on fp32-staged buffers (bit-identical)."""
        ws = op.scratch()
        sep = op.box_separable()
        alpha, taps = sep
        n_flat = op.nrows * kk
        x32 = halfvec.upcast(x_c.reshape(-1),
                             ws.get("stencil_x32", n_flat, _STAGE), scratch=ws)
        buffers = (ws.get("stencil_sep_a32", n_flat, _STAGE),
                   ws.get("stencil_sep_b32", n_flat, _STAGE))
        cur = x32
        for axis, axis_taps in enumerate(taps):
            nxt = buffers[axis % 2]
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
        buffers = (ws.get("stencil_sep_a", n_flat, cdtype),
                   ws.get("stencil_sep_b", n_flat, cdtype))
        cur = x_c.reshape(-1)
        for axis, axis_taps in enumerate(taps):
            nxt = buffers[axis % 2]
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

    def _apply_stencil_slabs(self, op, x_c, cdtype, kk):
        """Per-offset slab accumulation (the general fused path)."""
        vals_c = op.values.astype(cdtype, copy=False)
        ws = op.scratch()
        y = np.zeros(op.nrows * kk, dtype=cdtype)
        tail = (slice(None),) if kk > 1 else ()
        shape = op.dims + ((kk,) if kk > 1 else ())
        xg = x_c.reshape(shape)
        yg = y.reshape(shape)
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
        """Matrix-free apply; an ``(n, k)`` block's columns ride along as the
        fastest-varying axis of every slab/stream — the matrix-free analogue
        of SpMM — bit-identical to ``k`` vector applies."""
        mat_prec, vec_prec, compute, out_prec = spmv_setup(op.values.dtype, x.dtype,
                                                           out_precision)
        cdtype = compute.dtype
        k = columns(x)
        if k == 0:                          # an empty block: no sweep
            return np.empty(x.shape, dtype=out_prec.dtype)
        x_c = np.ascontiguousarray(x, dtype=cdtype)
        y = self._apply_stencil_separable(op, x_c, cdtype, k)
        if y is None:
            y = self._apply_stencil_slabs(op, x_c, cdtype, k)
        y = y.reshape(x.shape).astype(out_prec.dtype, copy=False)
        if record and counters_enabled():
            self._record_stencil(mat_prec, vec_prec, out_prec, compute,
                                 op.nrows, op.nnz, op.npoints, k)
        return y

    # ------------------------------------------------------------------ #
    def diag_scale(self, scale, x, out_precision=None, record=True, scratch=None):
        """``diag(scale) @ x``; the fp16 product is staged through fp32 —
        one SIMD multiply rounded by the same conversion the fp16 ufunc
        applies per element, so the result is bit-identical to the direct
        fp16 multiply."""
        if not (scale.dtype == _HALF and x.dtype == _HALF):
            return super().diag_scale(scale, x, out_precision, record=record,
                                      scratch=scratch)
        fp16 = Precision.FP16
        out = as_precision(out_precision) if out_precision is not None else fp16
        s32 = (scratch.cast("diag_scale", scale, _STAGE) if scratch is not None
               else halfvec.upcast(scale))
        x32 = halfvec.upcast(x, None if scratch is None else
                             scratch.get("diag_scale_x32", x.shape, _STAGE))
        result = halfvec.binop_round(np.multiply, x32, per_row(s32, x.ndim),
                                     scratch=scratch)
        if record:
            self._record_diag_scale(fp16, fp16, out, fp16, x.shape[0], columns(x))
        return result.astype(out.dtype, copy=False)

    # ------------------------------------------------------------------ #
    def _trsv_plan_and_vals(self, factor, cdtype):
        """Per-level gather plan + dtype-cast per-level values (cached).

        Off-diagonal values and the inverse diagonal are pre-gathered per
        level, cached per compute dtype on the factor (immutable derived
        data; a cross-thread race at worst rebuilds identical arrays).
        Returns ``(plan, (level_vals, level_inv, stage_vals))``;
        ``stage_vals`` holds the fp32 copies of an fp16 factor's level values
        when it passes the :data:`STAGED_LEVEL_GATHERS` gate, else ``None``.
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
            # the width gate: every off-diagonal entry is gathered by
            # exactly one level, so off_vals.size is the factor's gathers
            stage_vals = None
            if (np.dtype(cdtype) == _HALF
                    and factor.off_vals.size >= STAGED_LEVEL_GATHERS * len(plan)):
                stage_vals = [None if lv is None else lv.astype(_STAGE)
                              for lv in level_vals]
            cached = (level_vals, level_inv, stage_vals)
            factor._fast_vals[cdtype] = cached
        return plan, cached

    def _solve_levels_staged(self, factor, plan, stage_vals, level_inv, b16):
        """Staged-fp16 level sweep; returns the fp32 solution in the
        factor's arena.  The per-level arrays arrive shaped for ``b16`` (see
        :func:`_level_views`).

        The solution stays in fp32 across levels.  Per level: gather from
        it, multiply by the fp32 level values (exact: fp16 × fp16 fits in
        fp32), round the products to fp16 and sum them in fp32, round the
        row sums once, then ``(b − s) · inv`` in fp16 as the direct recipe
        does — bit-identical to it (see :mod:`~repro.backends.halfvec`).
        """
        ws = factor.scratch()
        x32 = ws.get("trsv_x32", b16.shape, _STAGE, zero=True)
        # level-size temporaries are fresh arrays: at these sizes numpy's
        # allocation is cheaper than an arena lookup
        for (rows, gather_idx, gather_cols, red_offsets, nonempty), lv32, inv in zip(
                plan, stage_vals, level_inv):
            if gather_idx is None:
                x32[rows] = b16[rows] * inv
                continue
            prods = x32[gather_cols]
            np.multiply(prods, lv32, out=prods)
            halfvec.quantize32(prods)
            if nonempty is None:
                sums = np.add.reduceat(prods, red_offsets, axis=0)
            else:
                sums = np.zeros((rows.size,) + b16.shape[1:], dtype=_STAGE)
                sums[nonempty] = np.add.reduceat(prods, red_offsets, axis=0)
            # one rounding of the fp32 row sums (rows are few: the direct
            # conversion beats quantizing first)
            x32[rows] = (b16[rows] - sums.astype(_HALF)) * inv
        return x32

    def trsv(self, factor, b, out_precision=None, record=True):
        """Level-scheduled substitution; an ``(n, k)`` block sweeps each level
        once for all columns — the per-level index arithmetic and Python
        overhead are amortized k-fold, and the gather/multiply/reduceat run
        on ``(segment, k)`` blocks — bit-identical to ``k`` vector solves."""
        vec_prec = precision_of_dtype(b.dtype)
        compute = promote(factor.precision, vec_prec)
        out_prec = as_precision(out_precision) if out_precision is not None else vec_prec
        cdtype = compute.dtype

        plan, (level_vals, level_inv, stage_vals) = self._trsv_plan_and_vals(
            factor, cdtype)
        b_c = b if b.dtype == cdtype else b.astype(cdtype)
        level_inv = _level_views(level_inv, b.ndim)

        if stage_vals is not None:
            x = self._solve_levels_staged(factor, plan,
                                          _level_views(stage_vals, b.ndim),
                                          level_inv, b_c)
            # fresh result (x is the arena's); fp16 values, so exact
            result = x.astype(out_prec.dtype)
        else:
            x = np.zeros(b.shape, dtype=cdtype)
            for (rows, gather_idx, gather_cols, red_offsets, nonempty), lv, inv in zip(
                    plan, _level_views(level_vals, b.ndim), level_inv):
                if gather_idx is None:
                    x[rows] = b_c[rows] * inv
                    continue
                prods = lv * x[gather_cols]
                if nonempty is None:
                    sums = np.add.reduceat(prods, red_offsets)
                else:
                    sums = np.zeros((rows.size,) + b.shape[1:], dtype=cdtype)
                    sums[nonempty] = np.add.reduceat(prods, red_offsets)
                x[rows] = (b_c[rows] - sums) * inv
            result = x.astype(out_prec.dtype, copy=False)

        if record and counters_enabled():
            self._record_trsv(factor, vec_prec, out_prec, compute, columns(b))
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

    def residual_update(self, v, az, out_precision=None, record=True,
                        scratch=None):
        pv = precision_of_dtype(v.dtype)
        paz = precision_of_dtype(az.dtype)
        compute = promote(pv, paz)
        out_prec = as_precision(out_precision) if out_precision is not None else pv
        cdtype = compute.dtype
        staged = np.dtype(cdtype) == _HALF and out_prec.dtype == _HALF
        if staged:
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
            self._record_axpy(paz, pv, out_prec, compute, v.shape[0], columns(v))
        return r

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
                    t = scratch.get("wupd_t", mr.shape, cdtype)
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
            self._record_axpy(pm, pz, vec_prec, compute, mr.shape[0], columns(mr))
        return result

    def spmv_axpy(self, values, indices, indptr, x, y, out_precision=None,
                  record=True, scratch=None):
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
            # paths
            ax = self.spmv_csr(values, indices, indptr, x,
                               out_precision=out_precision, record=record,
                               scratch=scratch)
            return self.residual_update(y, ax, out_precision=out_precision,
                                        record=record, scratch=scratch)
        # one pass: r starts as a copy of y and scipy's compiled matvec
        # (matvecs on a block) adds (−a_ij)·x_j into it one by one in stored
        # order, each product and add rounded once — no intermediate
        # product.  Negation is exact, so r_i = y_i − a_i1·x_1 − a_i2·x_2 …
        # from y_i sequentially, the order native's compiled residual pins;
        # the unfused pair rounds A·x first, so the two agree to tolerance.
        vals_c = scratch.cast("csr_values", values, cdtype)
        neg_vals = scratch.memo(("csr_values_neg", np.dtype(cdtype)),
                                lambda: -vals_c)
        x_c = np.ascontiguousarray(x, dtype=cdtype)
        r = y.astype(cdtype, order="C", copy=True)
        if x.ndim == 1:
            _scipy_sparsetools.csr_matvec(n, x.shape[0], indptr, indices,
                                          neg_vals, x_c, r)
        else:
            _scipy_sparsetools.csr_matvecs(n, x.shape[0], x.shape[1], indptr,
                                           indices, neg_vals, x_c.ravel(),
                                           r.ravel())
        if record and counters_enabled():
            k = columns(x)
            self._record_spmv(mat_prec, vec_prec, out_prec, compute, n, nnz,
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
