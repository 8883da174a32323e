"""Reference backend: the original emulation-faithful NumPy kernels.

This backend preserves the seed implementation of every hot kernel exactly —
per-column Gram-Schmidt loops, per-row scatter/gather ILU(0) — and serves
as the correctness oracle the ``fast`` backend is validated against (see
``tests/test_backends_equivalence.py``).  It records traffic at the same
granularity the original code did: one ``record_*`` call per logical BLAS-1
operation.

Every kernel takes a vector or an ``(n, k)`` block.  On this backend a block
call *is* :func:`~repro.backends.base.column_loop` over the vector kernel —
the per-column contract written as code, which the one-kernel equivalence
sweep pins the ``fast`` engine against, bit for bit and counter for counter.
The matrix-free stencil kernel is inherited from
:class:`~repro.backends.base.KernelBackend`: the base oracle materializes
each offset's products in the assembled matrix's CSR slot order and reduces
them with the shared ``row_segment_sums`` helper, so a stencil apply on this
backend is bit-identical to the reference SpMV on the assembled twin.
"""

from __future__ import annotations

import numpy as np

from ..precision import (
    BYTES_PER_INDEX,
    Precision,
    as_precision,
    precision_of_dtype,
    promote,
)
from ..sparse import vectorops as vo
from .base import (
    KernelBackend,
    column_loop,
    ilu0_setup,
    row_segment_sums,
    segment_ramp,
    split_lower_upper,
    spmv_setup,
)

__all__ = ["ReferenceBackend"]


def _row_sums(products: np.ndarray, indptr: np.ndarray, out_dtype) -> np.ndarray:
    """Sum ``products`` over CSR row segments, robust to empty rows."""
    y = np.zeros(indptr.size - 1, dtype=products.dtype)
    row_segment_sums(products, indptr, y)
    return y.astype(out_dtype, copy=False)


def _segment_sum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum ``values`` over consecutive segments of the given lengths."""
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    out = np.zeros(counts.size, dtype=values.dtype)
    return row_segment_sums(values, indptr, out)


class ReferenceBackend(KernelBackend):
    """Emulation-faithful kernels (the seed implementation, unchanged)."""

    name = "reference"

    # ------------------------------------------------------------------ #
    def spmv_csr(self, values, indices, indptr, x, out_precision=None,
                 record=True, scratch=None):
        if x.ndim == 2:
            return column_loop(lambda xj: self.spmv_csr(
                values, indices, indptr, xj, out_precision, record), x)
        mat_prec, vec_prec, compute, out_prec = spmv_setup(values.dtype, x.dtype,
                                                           out_precision)
        vals_c = values if values.dtype == compute.dtype else values.astype(compute.dtype)
        x_c = x if x.dtype == compute.dtype else x.astype(compute.dtype)

        products = vals_c * x_c[indices]
        y = _row_sums(products, indptr, compute.dtype)
        y = y.astype(out_prec.dtype, copy=False)

        if record:
            n = indptr.size - 1
            nnz = values.size
            self._record_spmv(mat_prec, vec_prec, out_prec, compute, n, nnz,
                              nnz * BYTES_PER_INDEX + (n + 1) * BYTES_PER_INDEX)
        return y

    # ------------------------------------------------------------------ #
    def trsv(self, factor, b, out_precision=None, record=True):
        if b.ndim == 2:
            return column_loop(lambda bj: self.trsv(factor, bj, out_precision,
                                                    record), b)
        vec_prec = precision_of_dtype(b.dtype)
        compute = promote(factor.precision, vec_prec)
        out_prec = as_precision(out_precision) if out_precision is not None else vec_prec

        x = np.zeros(factor.nrows, dtype=compute.dtype)
        b_c = b if b.dtype == compute.dtype else b.astype(compute.dtype)
        off_vals = (factor.off_vals if factor.off_vals.dtype == compute.dtype
                    else factor.off_vals.astype(compute.dtype))
        inv_diag = factor.inv_diag.astype(compute.dtype)

        rowptr = factor.off_rowptr
        cols = factor.off_cols
        for rows in factor.levels:
            starts = rowptr[rows]
            stops = rowptr[rows + 1]
            counts = stops - starts
            total = int(counts.sum())
            if total:
                gather_idx = np.repeat(starts, counts) + segment_ramp(counts)
                prods = off_vals[gather_idx] * x[cols[gather_idx]]
                sums = _segment_sum(prods, counts)
            else:
                sums = np.zeros(rows.size, dtype=compute.dtype)
            x[rows] = ((b_c[rows] - sums) * inv_diag[rows]).astype(compute.dtype)

        result = x.astype(out_prec.dtype, copy=False)
        if record:
            self._record_trsv(factor, vec_prec, out_prec, compute)
        return result

    # ------------------------------------------------------------------ #
    def orthogonalize(self, basis, j, w, vec_prec: Precision, scratch=None,
                      record=True):
        dtype = vec_prec.dtype
        h_col = np.zeros(j + 2, dtype=dtype)
        for i in range(j + 1):
            h_col[i] = dtype.type(vo.dot(basis[i], w, record=record))
        for i in range(j + 1):
            w = vo.axpy(-float(h_col[i]), basis[i], w, out_precision=vec_prec,
                        record=record)
        h_norm = vo.nrm2(w, record=record)
        h_col[j + 1] = dtype.type(h_norm)
        return h_col, w, h_norm

    def combine(self, z_vectors, y, k, vec_prec: Precision, record=True):
        n = z_vectors.shape[1]
        z = vo.vzeros(n, vec_prec)
        for i in range(k):
            z = vo.axpy(float(y[i]), z_vectors[i], z, out_precision=vec_prec,
                        record=record)
        return z

    # ------------------------------------------------------------------ #
    def ilu0_factor(self, matrix, alpha: float = 1.0, breakdown_shift: float = 1e-12):
        n, indptr, indices, values, shift = ilu0_setup(matrix, alpha, breakdown_shift)
        diag_value = np.zeros(n, dtype=np.float64)
        # positions of the first strictly-upper entry of each row (update loop)
        upper_start = np.zeros(n, dtype=np.int64)

        in_pattern = np.zeros(n, dtype=bool)
        work = np.zeros(n, dtype=np.float64)

        for i in range(n):
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            cols_i = indices[lo:hi]
            # scatter row i
            in_pattern[cols_i] = True
            work[cols_i] = values[lo:hi]

            for pos in range(lo, hi):
                k = int(indices[pos])
                if k >= i:
                    break
                pivot = diag_value[k]
                if pivot == 0.0:
                    pivot = shift if shift != 0.0 else 1.0
                lik = work[k] / pivot
                work[k] = lik
                # update against the strictly-upper part of row k (ILU(0): only
                # positions already present in row i's pattern receive the update)
                ks, ke = int(upper_start[k]), int(indptr[k + 1])
                if ks < ke:
                    ucols = indices[ks:ke]
                    mask = in_pattern[ucols]
                    if np.any(mask):
                        target = ucols[mask]
                        work[target] -= lik * values[ks:ke][mask]

            # gather row i back and record its diagonal / upper start
            values[lo:hi] = work[cols_i]
            dpos = np.searchsorted(cols_i, i)
            if dpos < cols_i.size and cols_i[dpos] == i:
                dval = values[lo + dpos]
                if dval == 0.0 or abs(dval) < shift:
                    dval = shift if dval >= 0.0 else -shift
                    values[lo + dpos] = dval
                diag_value[i] = dval
                upper_start[i] = lo + dpos + 1
            else:
                # missing structural diagonal: treat as shift (rare, degenerate input)
                diag_value[i] = shift if shift != 0.0 else 1.0
                upper_start[i] = lo + np.searchsorted(cols_i, i)

            # clear scatter workspace
            in_pattern[cols_i] = False
            work[cols_i] = 0.0

        return split_lower_upper(values, indices, indptr, n)
