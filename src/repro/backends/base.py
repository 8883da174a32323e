"""Kernel-engine backend interface.

Every hot kernel of the reproduction — CSR SpMV, the
level-scheduled triangular solve, FGMRES classical Gram-Schmidt, the Krylov
solution combination, and the ILU(0) factorization — dispatches through a
:class:`KernelBackend`.  Three implementations ship with the package:

* ``reference`` (:mod:`repro.backends.reference`): the original
  emulation-faithful NumPy code, kept verbatim as the correctness oracle.
* ``fast`` (:mod:`repro.backends.fast`): fully vectorized kernels with
  preallocated workspace buffers and batched counter recording.
* ``native`` (:mod:`repro.backends.native`): ``fast`` with the triangular
  solve, the fp16 CSR products and updates, the separable stencil sweep,
  the fp16 diagonal scaling and the fp32 ↔ fp16 casts compiled from C,
  bit-identical to its oracle
  (``reference``, or ``fast`` for the separable sweep); registered only
  where it builds.

Every backend must preserve two contracts:

1. **Precision-emulation semantics** — arithmetic runs in the promotion of the
   operand precisions and results are rounded to the requested output
   precision.  Backends may differ in summation *order* (BLAS-2 vs per-column
   loops), so results agree to the tolerance of the compute precision, not
   bitwise.
2. **Counter totals** — the bytes / flops / kernel-call totals recorded for a
   given logical operation are identical across backends; the ``fast`` backend
   merely batches them into fewer ``record_*`` calls.

Every kernel is one method for one and many right-hand sides: it takes a
vector ``(n,)`` or a block ``(n, k)`` with one right-hand side per column.
A block call equals ``k`` vector calls on its columns, bit for bit, and
records exactly their counter totals — so results and traffic-model figures
are independent of whether solves were batched.  :func:`column_loop` is that
contract written as code; the ``reference`` oracle runs it on a block.

To add another backend (e.g. a CuPy/GPU one), subclass :class:`KernelBackend`,
implement the abstract kernels, and register a factory with
:func:`repro.backends.register_backend`; see the README for a walkthrough.
"""

from __future__ import annotations

import abc
import functools

import numpy as np

from ..perf.counters import Traffic, counters_disabled
from ..perf.counters import record as record_traffic
from ..precision import BYTES_PER_INDEX, Precision, as_precision, precision_of_dtype, promote

__all__ = ["KernelBackend", "axpy_traffic", "cast_traffic", "column_loop", "columns",
           "combine_traffic", "diag_scale_traffic", "gram_schmidt_traffic",
           "ilu0_setup", "per_row", "row_segment_sums", "scal_traffic",
           "segment_ramp", "spmv_setup", "spmv_traffic", "split_lower_upper",
           "stencil_traffic", "trsv_traffic"]

# ---------------------------------------------------------------------- #
# Kernel traffic records
#
# Each builder is the counter totals of one kernel call, built once per
# distinct argument tuple (Precision members and ints) and cached, so a hot
# kernel records them with one add (:func:`repro.perf.counters.record`).
# ---------------------------------------------------------------------- #
_traffic_cache = functools.lru_cache(maxsize=4096)


@_traffic_cache
def spmv_traffic(mat_prec, vec_prec, out_prec, compute, n: int, nnz: int,
                 index_bytes: int, k: int = 1) -> Traffic:
    """Traffic of ``k`` SpMVs.  A block records its logical per-column
    traffic; amortization shows up in wall-clock, not in the counters."""
    return Traffic.of(
        calls=[("spmv", k)],
        values=[(mat_prec, k * nnz * mat_prec.bytes, k * index_bytes),
                (vec_prec, k * n * vec_prec.bytes, 0),
                (out_prec, k * n * out_prec.bytes, 0)],
        flops=[(compute, k * 2 * nnz)])


def trsv_traffic(factor, vec_prec, out_prec, compute, k: int = 1) -> Traffic:
    """Traffic of ``k`` triangular solves with ``factor``."""
    return _trsv_traffic(factor.precision, factor.nrows, factor.off_vals.size,
                         factor.off_cols.size, factor.unit_diagonal, vec_prec,
                         out_prec, compute, k)


@_traffic_cache
def _trsv_traffic(precision, n: int, off: int, off_cols: int, unit_diagonal: bool,
                  vec_prec, out_prec, compute, k: int) -> Traffic:
    nnz = off + (0 if unit_diagonal else n)
    return Traffic.of(
        calls=[("trsv", k)],
        values=[(precision, k * nnz * precision.bytes,
                 k * off_cols * BYTES_PER_INDEX),
                (vec_prec, k * n * vec_prec.bytes, 0),
                (out_prec, k * n * out_prec.bytes, 0)],
        flops=[(compute, k * (2 * off + 2 * n))])


@_traffic_cache
def stencil_traffic(mat_prec, vec_prec, out_prec, compute, n: int, nnz: int,
                    npoints: int, k: int = 1) -> Traffic:
    """Traffic of ``k`` fused stencil applies (shared by every backend).

    A matrix-free apply reads the input vector and the ``npoints``-entry
    coefficient table and writes the output — no value or index streams,
    which is exactly the ``cA`` collapse the cost model predicts.  Flops
    match the assembled SpMV (one multiply-add per structural nonzero).
    """
    return Traffic.of(
        calls=[("stencil", k)],
        values=[(mat_prec, k * npoints * mat_prec.bytes, 0),
                (vec_prec, k * n * vec_prec.bytes, 0),
                (out_prec, k * n * out_prec.bytes, 0)],
        flops=[(compute, k * 2 * nnz)])


@_traffic_cache
def axpy_traffic(px, py, out_prec, compute, n: int, k: int = 1) -> Traffic:
    """Traffic of ``k`` axpy-shaped updates (parity with ``vo.axpy``)."""
    return Traffic.of(
        calls=[("axpy", k)],
        values=[(px, k * n * px.bytes, 0), (py, k * n * py.bytes, 0),
                (out_prec, k * n * out_prec.bytes, 0)],
        flops=[(compute, 2 * k * n)])


@_traffic_cache
def diag_scale_traffic(sp, vp, out_prec, compute, n: int, k: int = 1) -> Traffic:
    """Traffic of ``k`` diagonal scalings (one multiply per entry)."""
    return Traffic.of(
        calls=[("diag_scale", k)],
        values=[(sp, k * n * sp.bytes, 0), (vp, k * n * vp.bytes, 0),
                (out_prec, k * n * out_prec.bytes, 0)],
        flops=[(compute, k * n)])


@_traffic_cache
def cast_traffic(src, dst, size: int, k: int = 1) -> Traffic:
    """Traffic of ``k`` casts over ``size`` entries in all."""
    return Traffic.of(calls=[("cast", k)],
                      values=[(src, size * src.bytes, 0), (dst, size * dst.bytes, 0)])


@_traffic_cache
def scal_traffic(p, n: int) -> Traffic:
    """Traffic of one scal (parity with ``vo.scal``)."""
    return Traffic.of(calls=[("scal", 1)], values=[(p, 2 * n * p.bytes, 0)],
                      flops=[(p, n)])


@_traffic_cache
def gram_schmidt_traffic(p, n: int, ncols: int) -> Traffic:
    """Batched equivalent of ``ncols`` dots + ``ncols`` axpys + one norm."""
    return Traffic.of(
        calls=[("dot", ncols), ("axpy", ncols), ("norm", 1)],
        values=[(p, 2 * ncols * n * p.bytes, 0), (p, 3 * ncols * n * p.bytes, 0),
                (p, n * p.bytes, 0)],
        flops=[(p, 2 * ncols * n), (p, 2 * ncols * n), (p, 2 * n)])


@_traffic_cache
def combine_traffic(p, n: int, k: int) -> Traffic:
    """Batched equivalent of ``k`` axpys accumulating the solution."""
    return Traffic.of(calls=[("axpy", k)], values=[(p, 3 * k * n * p.bytes, 0)],
                      flops=[(p, 2 * k * n)])


def per_row(a: np.ndarray, ndim: int) -> np.ndarray:
    """Per-row array ``a`` shaped to broadcast against an ``ndim``-D operand:
    ``a`` itself for a vector, ``a[:, None]`` for an ``(n, k)`` block."""
    return a if ndim == 1 else a[:, None]


def columns(x: np.ndarray) -> int:
    """Right-hand sides ``x`` carries: 1 for a vector, ``k`` for ``(n, k)``."""
    return x.shape[1] if x.ndim == 2 else 1


def column_loop(kernel, block: np.ndarray) -> np.ndarray:
    """``kernel`` run on each column of an ``(n, k)`` block, stacked.

    The per-column oracle of the kernel contract: a backend's block call
    must equal this loop over its vector calls, bit for bit and counter for
    counter.  A zero-column block records nothing and keeps the row count
    and dtype of a vector call, read off one unrecorded call.
    """
    if block.shape[1] == 0:
        with counters_disabled():
            y = kernel(np.zeros(block.shape[0], dtype=block.dtype))
        return np.empty((y.shape[0], 0), dtype=y.dtype)
    return np.stack([kernel(np.ascontiguousarray(block[:, j]))
                     for j in range(block.shape[1])], axis=1)


def row_segment_sums(products: np.ndarray, indptr: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """``out[i] = sum(products[indptr[i]:indptr[i+1]])``, robust to empty segments.

    ``reduceat`` is evaluated only at the starts of non-empty segments: the
    reduction from one non-empty segment's start to the next automatically
    skips interleaved empty segments because those contribute no elements.
    Shared by both backends so the summation semantics stay identical.

    ``products`` may be 2-D (one column per right-hand side); the reduction
    then runs along axis 0 and ``out`` must have the matching column count.
    """
    out.fill(0)
    if products.size:
        counts = np.diff(indptr)
        nonempty = counts > 0
        starts = indptr[:-1][nonempty]
        if starts.size:
            out[nonempty] = np.add.reduceat(products, starts)
    return out


def ilu0_setup(matrix, alpha: float, breakdown_shift: float):
    """Shared ILU(0) preamble: validation, αILU scaling, fp64 copy, shift.

    The breakdown-shift policy is load-bearing for the cross-backend
    factor-equivalence contract, so it lives here rather than per engine.
    Returns ``(n, indptr, indices, values, shift)`` with ``values`` a mutable
    fp64 copy the elimination works in.
    """
    from ..sparse.ops import scale_diagonal_entries

    if matrix.nrows != matrix.ncols:
        raise ValueError("ILU(0) requires a square matrix")
    work_matrix = scale_diagonal_entries(matrix, alpha) if alpha != 1.0 else matrix

    n = work_matrix.nrows
    values = work_matrix.values.astype(np.float64).copy()
    max_abs = float(np.max(np.abs(values))) if values.size else 1.0
    shift = breakdown_shift * max(max_abs, 1.0)
    return n, work_matrix.indptr, work_matrix.indices, values, shift


def segment_ramp(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for segment gathers (shared by both engines)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    idx = np.arange(total, dtype=np.int64)
    return idx - np.repeat(starts, counts)


def spmv_setup(values_dtype, x_dtype, out_precision):
    """Resolve (matrix, vector, compute, output) precisions for a matvec."""
    mat_prec = precision_of_dtype(values_dtype)
    vec_prec = precision_of_dtype(x_dtype)
    compute = promote(mat_prec, vec_prec)
    out_prec = as_precision(out_precision) if out_precision is not None else vec_prec
    return mat_prec, vec_prec, compute, out_prec


def split_lower_upper(values: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                      n: int):
    """Split factored ILU(0) values into (strictly-lower L, diag+upper U) CSR parts.

    Returns ``(L, U)`` as :class:`~repro.sparse.csr.CSRMatrix` instances; shared
    by both backends so the factor layout is identical regardless of engine.
    """
    from ..sparse.csr import CSRMatrix

    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    lower_mask = indices < rows
    upper_mask = ~lower_mask

    def _build(mask: np.ndarray) -> CSRMatrix:
        sel_rows = rows[mask]
        sel_cols = indices[mask]
        sel_vals = values[mask]
        new_indptr = np.zeros(n + 1, dtype=np.int32)
        np.add.at(new_indptr, sel_rows + 1, 1)
        np.cumsum(new_indptr, out=new_indptr)
        return CSRMatrix(sel_vals, sel_cols.astype(np.int32), new_indptr, (n, n))

    return _build(lower_mask), _build(upper_mask)


class KernelBackend(abc.ABC):
    """Abstract compute engine for the solver stack's hot kernels."""

    #: Registry name of the backend (set by subclasses).
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Sparse matrix-vector products
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def spmv_csr(self, values: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 x: np.ndarray, out_precision=None, record: bool = True,
                 scratch=None) -> np.ndarray:
        """``y = A @ x`` for CSR arrays and a vector or ``(n, k)`` block ``x``;
        ``scratch`` is the matrix's workspace."""

    # ------------------------------------------------------------------ #
    # Matrix-free stencil applies
    #
    # The default kernel is the loop-faithful oracle: it gathers each
    # offset's products into the exact per-row, column-ordered slots of the
    # assembled CSR product stream and reduces them with the same
    # ``row_segment_sums`` helper the CSR kernels use — so a stencil apply
    # on the oracle is bit-identical to the reference SpMV on the assembled
    # matrix.  A block runs the column loop.
    # ------------------------------------------------------------------ #
    def apply_stencil(self, op, x: np.ndarray, out_precision=None,
                      record: bool = True) -> np.ndarray:
        """``y = A @ x`` for a :class:`~repro.operators.StencilOperator`."""
        if x.ndim == 2:
            return column_loop(lambda xj: self.apply_stencil(
                op, xj, out_precision=out_precision, record=record), x)
        mat_prec, vec_prec, compute, out_prec = spmv_setup(op.values.dtype, x.dtype,
                                                           out_precision)
        cdtype = compute.dtype
        x_c = x if x.dtype == cdtype else x.astype(cdtype)
        vals_c = op.values.astype(cdtype, copy=False)
        indptr, entries = op.csr_gather_plan()
        products = np.empty(op.nnz, dtype=cdtype)
        for pos, positions, src in entries:
            products[positions] = vals_c[pos] * x_c[src]
        y = np.zeros(op.nrows, dtype=cdtype)
        row_segment_sums(products, indptr, y)
        y = y.astype(out_prec.dtype, copy=False)
        if record:
            self._record_stencil(mat_prec, vec_prec, out_prec, compute,
                                 op.nrows, op.nnz, op.npoints)
        return y

    # ------------------------------------------------------------------ #
    # Diagonal scaling
    # ------------------------------------------------------------------ #
    def diag_scale(self, scale: np.ndarray, x: np.ndarray, out_precision=None,
                   record: bool = True, scratch=None) -> np.ndarray:
        """``diag(scale) @ x`` for a vector or an ``(n, k)`` block.

        Arithmetic in the promotion of the scale and vector precisions,
        rounded to ``out_precision`` (default: the vector precision); a
        block records ``k`` scalings.  ``scratch`` is the scale owner's
        arena: an engine may cache a converted copy of ``scale`` there, so
        one arena must always see the same scale.
        """
        sp, vp = precision_of_dtype(scale.dtype), precision_of_dtype(x.dtype)
        compute = promote(sp, vp)
        out = as_precision(out_precision) if out_precision is not None else vp
        s = (scratch.cast("diag_scale", scale, compute.dtype) if scratch is not None
             else scale.astype(compute.dtype, copy=False))
        result = (x.astype(compute.dtype, copy=False) * per_row(s, x.ndim)).astype(
            out.dtype, copy=False)
        if record:
            self._record_diag_scale(sp, vp, out, compute, x.shape[0], columns(x))
        return result

    # ------------------------------------------------------------------ #
    # Precision casts
    # ------------------------------------------------------------------ #
    def cast(self, x: np.ndarray, precision, record: bool = True) -> np.ndarray:
        """``x`` (a vector or an ``(n, k)`` block) rounded to ``precision``
        in one correctly rounded step: a read and a write, and a block
        records ``k`` casts.  ``x`` itself when it is stored in
        ``precision`` already."""
        p = as_precision(precision)
        src = precision_of_dtype(x.dtype)
        if record and p != src:
            self._record_cast(src, p, x.size, columns(x))
        if x.dtype == p.dtype:
            return x
        return x.astype(p.dtype)

    # ------------------------------------------------------------------ #
    # Triangular substitution
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def trsv(self, factor, b: np.ndarray, out_precision=None,
             record: bool = True) -> np.ndarray:
        """Solve ``T x = b`` for a prepared :class:`TriangularFactor` (``b``
        a vector or an ``(n, k)`` block)."""

    # ------------------------------------------------------------------ #
    # Fused solve-plan kernels
    #
    # The hot loops of the compiled solve plans (:mod:`repro.plans`) call
    # these instead of kernel pairs.  Every default below *composes the
    # existing unfused kernels in exactly the order the solver loops used to
    # run them* — so the defaults are bit-identical to the unfused sequences
    # and record identical counter totals (the fused-vs-unfused parity
    # oracle).  A backend override may reorder/fuse the arithmetic (results
    # then agree to the compute-precision tolerance, like every other
    # vectorized kernel) but must keep the counter totals.
    # ------------------------------------------------------------------ #
    def spmv_axpy(self, values: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                  x: np.ndarray, y: np.ndarray, out_precision=None,
                  record: bool = True, scratch=None) -> np.ndarray:
        """Fused residual update ``r = y − A·x`` for CSR arrays.

        Semantics of the unfused pair: the product is rounded to
        ``out_precision`` first, then combined with ``y`` under the axpy
        promotion rules (``vo.axpy(-1.0, A@x, y)``).
        """
        ax = self.spmv_csr(values, indices, indptr, x, out_precision=out_precision,
                           record=record, scratch=scratch)
        return self.residual_update(y, ax, out_precision=out_precision,
                                    record=record, scratch=scratch)

    def residual_update(self, v: np.ndarray, az: np.ndarray, out_precision=None,
                        record: bool = True, scratch=None) -> np.ndarray:
        """``r = v − az`` with the axpy promotion/rounding/recording rules.

        The residual-combine half of the fused sweep, usable with any
        operator storage (the plan composes ``apply`` + this for storages
        without a fully fused kernel).
        """
        from ..sparse import vectorops as vo

        return vo.axpy(-1.0, az, v, out_precision=out_precision, record=record)

    def weighted_update(self, z: np.ndarray, mr: np.ndarray, omega: float,
                        vec_prec: Precision, scratch=None,
                        record: bool = True) -> np.ndarray:
        """Richardson weighted update ``z + ω·mr`` in the level dtype.

        For ``(n, k)`` blocks ``omega`` is one weight or ``k`` per-column
        weights; either way each column gets ``vo.axpy``'s arithmetic and
        counters.  ``z`` is *consumed*: an override may update it in place
        and return it, so callers must use only the returned array.
        """
        from ..sparse import vectorops as vo

        return vo.axpy(omega, mr, z, out_precision=vec_prec, record=record)

    def richardson_sweep(self, plan, preconditioner, m: int, v: np.ndarray,
                         traffic, applications: int):
        """A compiled Richardson invocation: a callable running all ``m``
        steps of ``RichardsonLevel.apply_batch``'s loop on operands like
        ``v`` (plan ``plan``'s products, ``preconditioner``'s applies) in
        one call, bit for bit, that records ``traffic`` and counts
        ``applications`` of the preconditioner — what one loop invocation
        recorded and counted — or ``None``, and the level runs its loop.
        No engine but ``native`` compiles one."""
        return None

    def orthonormalize(self, basis: np.ndarray, j: int, w: np.ndarray,
                       vec_prec: Precision, scratch=None, record: bool = True):
        """Fused CGS orthogonalize-normalize step.

        Orthogonalizes ``w`` against ``basis[:j+1]`` and — unless the step
        broke down — writes the normalized vector into ``basis[j+1]`` with
        the exact arithmetic of the unfused ``scal`` (reciprocal rounded to
        the level dtype, multiply in that dtype).  Returns
        ``(h_col, h_norm, normalized)``; ``w`` is consumed either way.
        Callers use it on iterations that always continue (inner levels /
        no early-stop), where the normalization is unconditional.
        """
        h_col, w, h_norm = self.orthogonalize(basis, j, w, vec_prec,
                                              scratch=scratch, record=record)
        normalized = h_norm != 0.0 and np.isfinite(h_norm)
        if normalized:
            from ..sparse import vectorops as vo

            basis[j + 1] = vo.scal(1.0 / h_norm, w, record=record)
        return h_col, h_norm, normalized

    # ------------------------------------------------------------------ #
    # FGMRES building blocks
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def orthogonalize(self, basis: np.ndarray, j: int, w: np.ndarray,
                      vec_prec: Precision, scratch=None, record: bool = True):
        """Classical Gram-Schmidt of ``w`` against ``basis[:j+1]`` (rows).

        Returns ``(h_col, w_orth, h_norm)`` where ``h_col`` has length
        ``j + 2`` with ``h_col[j+1] == h_norm`` in the level dtype.

        ``w`` is *consumed*: a backend may overwrite it in place (the fast
        engine does when given a scratch arena), so callers must pass a vector
        they no longer need — e.g. a fresh matvec result — and use only the
        returned ``w_orth``.
        """

    @abc.abstractmethod
    def combine(self, z_vectors: np.ndarray, y: np.ndarray, k: int,
                vec_prec: Precision, record: bool = True) -> np.ndarray:
        """``z = sum_i y[i] * z_vectors[i]`` over the first ``k`` rows."""

    # ------------------------------------------------------------------ #
    # Factorizations
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def ilu0_factor(self, matrix, alpha: float = 1.0,
                    breakdown_shift: float = 1e-12):
        """ILU(0) on the pattern of ``matrix``; returns ``(L, U)`` CSR factors."""

    # ------------------------------------------------------------------ #
    # Shared batched-recording helpers (identical totals on every backend):
    # each records the cached Traffic of its arguments in one add
    # ------------------------------------------------------------------ #
    @staticmethod
    def _record_spmv(mat_prec, vec_prec, out_prec, compute, n: int, nnz: int,
                     index_bytes: int, k: int = 1) -> None:
        record_traffic(spmv_traffic(mat_prec, vec_prec, out_prec, compute, n, nnz,
                                    index_bytes, k))

    @staticmethod
    def _record_trsv(factor, vec_prec, out_prec, compute, k: int = 1) -> None:
        record_traffic(trsv_traffic(factor, vec_prec, out_prec, compute, k))

    @staticmethod
    def _record_stencil(mat_prec, vec_prec, out_prec, compute, n: int, nnz: int,
                        npoints: int, k: int = 1) -> None:
        record_traffic(stencil_traffic(mat_prec, vec_prec, out_prec, compute, n, nnz,
                                       npoints, k))

    @staticmethod
    def _record_axpy(px: Precision, py: Precision, out_prec: Precision,
                     compute: Precision, n: int, k: int = 1) -> None:
        record_traffic(axpy_traffic(px, py, out_prec, compute, n, k))

    @staticmethod
    def _record_diag_scale(sp: Precision, vp: Precision, out_prec: Precision,
                           compute: Precision, n: int, k: int = 1) -> None:
        record_traffic(diag_scale_traffic(sp, vp, out_prec, compute, n, k))

    @staticmethod
    def _record_cast(src: Precision, dst: Precision, size: int, k: int = 1) -> None:
        record_traffic(cast_traffic(src, dst, size, k))

    @staticmethod
    def _record_scal(p: Precision, n: int) -> None:
        record_traffic(scal_traffic(p, n))

    @staticmethod
    def _record_gram_schmidt(p: Precision, n: int, ncols: int) -> None:
        record_traffic(gram_schmidt_traffic(p, n, ncols))

    @staticmethod
    def _record_combine(p: Precision, n: int, k: int) -> None:
        record_traffic(combine_traffic(p, n, k))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
