"""Dense vector kernels with precision emulation and traffic accounting.

The Krylov solvers are built exclusively on these primitives (dot, nrm2, axpy,
scal, copy, xpby, waxpby), so every flop and byte the solvers execute flows
through a single instrumented code path.  Each kernel:

* promotes its operands to the wider precision for the arithmetic (the paper's
  promotion rule),
* rounds the result to the requested output precision, and
* records bytes moved / flops with :mod:`repro.perf.counters`, as one
  cached :class:`~repro.perf.counters.Traffic` per argument tuple.
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..backends.base import columns
from ..perf.counters import kernel_traffic
from ..perf.counters import record as record_traffic
from ..precision import Precision, as_precision, precision_of_dtype, promote

__all__ = ["dot", "nrm2", "axpy", "diagmul", "xpby", "waxpby",
           "scal", "vcopy", "vzeros", "cast_vector"]


def _prec(x: np.ndarray) -> Precision:
    return precision_of_dtype(x.dtype)


def _record(kernel: str, count: int, values: tuple, flops: tuple = ()) -> None:
    """Record one call's cached traffic (see :func:`kernel_traffic`)."""
    record_traffic(kernel_traffic(kernel, count, values, flops))


def _update_bytes(x, px, y, py, result, out) -> tuple:
    """The value traffic of a two-operand update: read ``x`` and ``y``,
    write ``result``."""
    return ((px, x.size * px.bytes), (py, y.size * py.bytes),
            (out, result.size * out.bytes))


def vzeros(n: int, precision: Precision | str) -> np.ndarray:
    """Zero vector of length n in the storage dtype of ``precision``."""
    return np.zeros(n, dtype=as_precision(precision).dtype)


def cast_vector(x: np.ndarray, precision: Precision | str, record: bool = True) -> np.ndarray:
    """Round a vector or an ``(n, k)`` block to ``precision`` (a read + write;
    a block counts as ``k`` casts).

    ``x`` itself, unrecorded, when it is stored in ``precision`` already;
    otherwise the active kernel engine's ``cast`` runs it (``native``
    compiles the fp32 ↔ fp16 pair above a size gate).
    """
    p = as_precision(precision)
    if x.dtype == p.dtype:
        return x
    return get_backend().cast(x, p, record=record)


def dot(x: np.ndarray, y: np.ndarray, record: bool = True) -> float:
    """Inner product computed in the promoted precision, returned as float."""
    px, py = _prec(x), _prec(y)
    compute = promote(px, py)
    xc = x if x.dtype == compute.dtype else x.astype(compute.dtype)
    yc = y if y.dtype == compute.dtype else y.astype(compute.dtype)
    result = np.dot(xc, yc)
    if record:
        _record("dot", 1, ((px, x.size * px.bytes), (py, y.size * py.bytes)),
                ((compute, 2 * x.size),))
    return float(result)


def nrm2(x: np.ndarray, record: bool = True) -> float:
    """Euclidean norm computed in the operand precision."""
    p = _prec(x)
    result = np.sqrt(np.dot(x, x).astype(np.float64))
    if record:
        _record("norm", 1, ((p, x.size * p.bytes),), ((p, 2 * x.size),))
    return float(result)


def axpy(alpha, x: np.ndarray, y: np.ndarray,
         out_precision: Precision | str | None = None, record: bool = True) -> np.ndarray:
    """Return ``alpha * x + y`` rounded to ``out_precision`` (default: y's precision).

    ``x``/``y`` may be ``(n, k)`` blocks, with ``alpha`` one scalar or ``k``
    per-column weights; a block counts as ``k`` axpys.
    """
    px, py = _prec(x), _prec(y)
    compute = promote(px, py)
    out = as_precision(out_precision) if out_precision is not None else py
    alpha_c = compute.dtype.type(alpha)
    xc = x if x.dtype == compute.dtype else x.astype(compute.dtype)
    yc = y if y.dtype == compute.dtype else y.astype(compute.dtype)
    result = (alpha_c * xc + yc).astype(out.dtype, copy=False)
    if record:
        _record("axpy", columns(x), _update_bytes(x, px, y, py, result, out),
                ((compute, 2 * x.size),))
    return result


def diagmul(scale: np.ndarray, x: np.ndarray,
            out_precision: Precision | str | None = None,
            record: bool = True) -> np.ndarray:
    """``diag(scale) @ x`` for a vector or an ``(n, k)`` block.

    Arithmetic in the promotion of the scale and vector precisions, rounded
    to ``out_precision`` (default: the vector precision); counter parity
    with ``k`` single-vector multiplies.  The active kernel engine's
    ``diag_scale`` runs it.
    """
    return get_backend().diag_scale(scale, x, out_precision=out_precision,
                                    record=record)


def xpby(x: np.ndarray, beta: float, y: np.ndarray,
         out_precision: Precision | str | None = None, record: bool = True) -> np.ndarray:
    """Return ``x + beta * y`` (the BiCGStab/CG search-direction update shape)."""
    px, py = _prec(x), _prec(y)
    compute = promote(px, py)
    out = as_precision(out_precision) if out_precision is not None else px
    beta_c = compute.dtype.type(beta)
    xc = x if x.dtype == compute.dtype else x.astype(compute.dtype)
    yc = y if y.dtype == compute.dtype else y.astype(compute.dtype)
    result = (xc + beta_c * yc).astype(out.dtype, copy=False)
    if record:
        _record("axpy", 1, _update_bytes(x, px, y, py, result, out),
                ((compute, 2 * x.size),))
    return result


def waxpby(alpha: float, x: np.ndarray, beta: float, y: np.ndarray,
           out_precision: Precision | str | None = None, record: bool = True) -> np.ndarray:
    """Return ``alpha * x + beta * y`` (general two-vector update)."""
    px, py = _prec(x), _prec(y)
    compute = promote(px, py)
    out = as_precision(out_precision) if out_precision is not None else promote(px, py)
    a = compute.dtype.type(alpha)
    b = compute.dtype.type(beta)
    xc = x if x.dtype == compute.dtype else x.astype(compute.dtype)
    yc = y if y.dtype == compute.dtype else y.astype(compute.dtype)
    result = (a * xc + b * yc).astype(out.dtype, copy=False)
    if record:
        _record("waxpby", 1, _update_bytes(x, px, y, py, result, out),
                ((compute, 3 * x.size),))
    return result


def scal(alpha: float, x: np.ndarray, record: bool = True) -> np.ndarray:
    """Return ``alpha * x`` in x's precision."""
    p = _prec(x)
    result = (p.dtype.type(alpha) * x).astype(p.dtype, copy=False)
    if record:
        _record("scal", 1, ((p, 2 * x.size * p.bytes),), ((p, x.size),))
    return result


def vcopy(x: np.ndarray, precision: Precision | str | None = None,
          record: bool = True) -> np.ndarray:
    """Copy ``x``, optionally into a different storage precision."""
    p = as_precision(precision) if precision is not None else _prec(x)
    src = _prec(x)
    result = x.astype(p.dtype, copy=True)
    if record:
        _record("copy", 1, ((src, x.size * src.bytes), (p, x.size * p.bytes)))
    return result
