"""Floating-point precision registry.

The paper's F3R solver mixes three IEEE-754 binary formats: fp64 (binary64),
fp32 (binary32) and fp16 (binary16).  On the paper's hardware these map to
native instructions (AVX-512 FP16, CUDA half); here they map to NumPy dtypes,
which implement the identical formats, so rounding behaviour — the only thing
that affects convergence — is reproduced exactly.

This module is the single source of truth for precision metadata: machine
epsilon, representable range, storage size, and promotion rules (the paper's
"higher-precision instructions are used when the inputs differ in precision").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Precision",
    "PrecisionTraits",
    "traits",
    "promote",
    "dtype_of",
    "precision_of_dtype",
    "BYTES_PER_VALUE",
    "BYTES_PER_INDEX",
]

#: Size of the integer column-index / row-pointer type used throughout the
#: paper's sparse formats ("All the solvers used 32-bit integers for column
#: indices and index pointer arrays").
BYTES_PER_INDEX = 4


class Precision(enum.Enum):
    """The three floating-point formats used by the paper.

    Members compare by *width*: ``Precision.FP16 < Precision.FP32 < Precision.FP64``
    is expressed through :func:`promote` and the ``bits`` property rather than
    rich comparisons, keeping the enum simple and hashable.
    """

    FP64 = "fp64"
    FP32 = "fp32"
    FP16 = "fp16"

    # ------------------------------------------------------------------ #
    @property
    def dtype(self) -> np.dtype:
        """NumPy dtype implementing this format."""
        return _DTYPES[self]

    @property
    def bits(self) -> int:
        return _BITS[self]

    @property
    def bytes(self) -> int:
        return _BITS[self] // 8

    @property
    def eps(self) -> float:
        """Unit roundoff (machine epsilon) of the format."""
        return float(np.finfo(self.dtype).eps)

    @property
    def max(self) -> float:
        """Largest finite representable value."""
        return float(np.finfo(self.dtype).max)

    @property
    def min_normal(self) -> float:
        """Smallest positive normal value."""
        return float(np.finfo(self.dtype).tiny)

    @property
    def label(self) -> str:
        return self.value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    #: members are singletons, so identity is equality: the C-level object
    #: hash replaces ``Enum.__hash__`` (a Python call hashing the name),
    #: which the per-kernel traffic counters invoke on every record
    __hash__ = object.__hash__


_DTYPES = {
    Precision.FP64: np.dtype(np.float64),
    Precision.FP32: np.dtype(np.float32),
    Precision.FP16: np.dtype(np.float16),
}
_BITS = {Precision.FP64: 64, Precision.FP32: 32, Precision.FP16: 16}

_BY_DTYPE = {dt: p for p, dt in _DTYPES.items()}
_BY_NAME = {p.value: p for p in Precision}
_BY_NAME.update({"double": Precision.FP64, "single": Precision.FP32, "half": Precision.FP16})

#: bytes per stored matrix/vector value for each precision
BYTES_PER_VALUE = {p: p.bytes for p in Precision}


@dataclass(frozen=True)
class PrecisionTraits:
    """Immutable bundle of numerical characteristics of a format.

    Convenient for property-based tests and for the overflow/underflow
    accounting in :mod:`repro.precision.analysis`.
    """

    precision: Precision
    eps: float
    max: float
    min_normal: float
    mantissa_bits: int
    exponent_bits: int

    @property
    def decimal_digits(self) -> float:
        """Approximate number of significant decimal digits."""
        return self.mantissa_bits * 0.30103


_MANTISSA = {Precision.FP64: 52, Precision.FP32: 23, Precision.FP16: 10}
_EXPONENT = {Precision.FP64: 11, Precision.FP32: 8, Precision.FP16: 5}


def traits(precision: Precision | str) -> PrecisionTraits:
    """Return the :class:`PrecisionTraits` for ``precision``."""
    p = as_precision(precision)
    return PrecisionTraits(
        precision=p,
        eps=p.eps,
        max=p.max,
        min_normal=p.min_normal,
        mantissa_bits=_MANTISSA[p],
        exponent_bits=_EXPONENT[p],
    )


def as_precision(value: Precision | str | np.dtype | type) -> Precision:
    """Coerce strings, numpy dtypes, or Precision members to a Precision.

    Accepts ``"fp16"/"fp32"/"fp64"``, ``"half"/"single"/"double"``, numpy
    dtypes and scalar types.
    """
    if isinstance(value, Precision):
        return value
    if isinstance(value, str):
        key = value.lower()
        if key in _BY_NAME:
            return _BY_NAME[key]
        raise ValueError(f"unknown precision name: {value!r}")
    dt = np.dtype(value)
    if dt in _BY_DTYPE:
        return _BY_DTYPE[dt]
    raise ValueError(f"unsupported dtype for precision emulation: {dt}")


def dtype_of(precision: Precision | str) -> np.dtype:
    """NumPy dtype corresponding to ``precision``."""
    return as_precision(precision).dtype


def precision_of_dtype(dtype: np.dtype | type) -> Precision:
    """Inverse of :func:`dtype_of`."""
    return as_precision(dtype)


def promote(*precisions: Precision | str) -> Precision:
    """Return the widest of the given precisions.

    Mirrors the paper's rule that when operands differ in precision the
    computation is carried out in the higher precision (e.g. the fp16-stored
    matrix in F^m3 is multiplied against fp32 Arnoldi vectors using fp32
    arithmetic).
    """
    if not precisions:
        raise ValueError("promote() requires at least one precision")
    widest = Precision.FP16
    for p in precisions:
        p = as_precision(p)
        if _BITS[p] > _BITS[widest]:
            widest = p
    return widest
