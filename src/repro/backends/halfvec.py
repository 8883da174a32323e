"""Bit-faithful staged arithmetic for emulated fp16 vector kernels.

NumPy's ``float16`` ufunc loops are defined per element as *convert the
operands to float32, run the operation, round the result back to float16*
(``npy_half_to_float`` / ``npy_float_to_half``).  Two properties make them
slow on the solver's hot data:

* the loops are scalar (no SIMD), an order of magnitude behind float32, and
* the software float↔half conversions take a per-element slow path whenever
  a value lands in the **fp16 subnormal range** — which is most of a nested
  solver's inner residuals — costing 10-25x on top.

The helpers here run the exact same computation in bulk and cross the
scalar conversion routines only at kernel boundaries:

* operands expand to float32 once (:func:`upcast`, exact);
* each elementary operation runs as one vectorized float32 pass;
* the mandatory per-operation fp16 rounding is applied **in float32** by
  :func:`quantize32`, at a fixed cost of eight SIMD passes.  Its fast path
  is the magic-number form: with ``e`` the float32 exponent field of ``x``
  clamped below at that of 2⁻¹⁴, ``magic = 1.5·2^(e+13)`` has an ulp of
  exactly fp16's spacing at ``x``'s binade (2⁻²⁴ in the subnormal range),
  so ``(x + magic) − magic`` rounds ``x`` onto the fp16 grid with the
  hardware's round-to-nearest-even, and OR-ing back the sign bit keeps
  ``−0``.  Arrays holding any ``|x| ≥ 2¹⁵``, inf or NaN take the exact
  fallback instead (Veltkamp splitting with explicit overflow and
  subnormal masks), which also handles overflow to ±inf;
* values are materialized as fp16 storage only at kernel boundaries
  (:func:`round_into`), where the conversion is exact — the fast path of
  numpy's converter.

Multi-term row sums stage too.  numpy's fp16 add-reduction accumulates in
float32 and rounds once at the end (the same pairwise loop as float32's), so
``np.add.reduceat(p16, starts)`` equals ``np.add.reduceat(p32, starts)``
rounded to fp16, where ``p32`` holds the same fp16-representable values —
1-D and along axis 0 of a 2-D block.  :func:`segment_sums_round` is that
recipe: quantize the fp32 products in place, reduce in float32, round the
row sums once.  The fast engine's fp16 SpMV/SpMM and its wide-level
triangular solves use it; a solve whose levels are narrow keeps the direct
fp16 recipe (see ``fast.STAGED_LEVEL_GATHERS``), because there the extra
calls per level cost more than they save.

One operation, one rounding: results are **bit-identical** to the direct
``np.float16`` ufunc chains, which the ``reference`` backend runs
(``tests/test_plans.py`` sweeps the equivalence against it, including
subnormals, overflow-to-inf, signed zeros and NaN).
"""

from __future__ import annotations

import numpy as np

from .base import row_segment_sums

__all__ = [
    "HALF",
    "STAGE",
    "upcast",
    "quantize32",
    "round_into",
    "segment_sums_round",
    "binop_round",
    "scalar_mul_round",
    "staged_axpy",
]

#: the emulated storage dtype and its staging (compute) dtype
HALF = np.dtype(np.float16)
STAGE = np.dtype(np.float32)
_BITS = np.dtype(np.uint32)

# Fast-path constants, held as 0-d arrays: a ufunc call with a 0-d array
# operand skips the numpy-scalar conversion that dominates at level size.
#: float32 exponent and sign fields
_EXP_MASK = np.array(0x7F800000, dtype=_BITS)
_SIGN_MASK = np.array(0x80000000, dtype=_BITS)
#: exponent field of 2**-14, fp16's smallest normal: the clamp puts the whole
#: subnormal range on the 2**-24 grid
_EXP_FLOOR = np.array(0x38800000, dtype=_BITS)
#: added to an exponent field e, gives the bits of 1.5 * 2**(e + 13), whose
#: float32 ulp 2**(e - 10) is fp16's spacing in x's binade
_MAGIC_OFFSET = np.array((13 << 23) | 0x400000, dtype=_BITS)
#: exponent field of 2**15: at or above it (inf and NaN included) the magic
#: sum would leave its binade or overflow fp16, so the exact fallback runs
_EXP_FALLBACK = 0x47000000

#: Veltkamp splitting constant 2**s + 1 with s = 13: splitting a 24-bit
#: significand at s leaves an 11-bit high part — exactly fp16 precision
_SPLIT = np.float32(2.0 ** 13 + 1.0)
#: magic constant whose float32 ulp is 2**-24, the fp16 subnormal unit:
#: (x + 0.75) - 0.75 rounds |x| < 2**-14 onto the subnormal grid (RNE)
_SUBMAGIC = np.float32(0.75)
_F16_MIN_NORMAL = np.float32(2.0 ** -14)
_F16_MAX = np.float32(65504.0)


def _buf(scratch, name: str, shape, dtype) -> np.ndarray:
    if scratch is None:
        return np.empty(shape, dtype=dtype)
    return scratch.get(name, shape, dtype)


# ---------------------------------------------------------------------- #
# fp16 -> fp32 expansion
# ---------------------------------------------------------------------- #
def upcast(x16: np.ndarray, out32: np.ndarray | None = None,
           scratch=None) -> np.ndarray:
    """Exact fp16 → fp32 expansion (into ``out32`` when given)."""
    if out32 is None:
        return x16.astype(STAGE)
    np.copyto(out32, x16, casting="unsafe")
    return out32


# ---------------------------------------------------------------------- #
# fp16 rounding applied in fp32 (the heart of the staged paths)
# ---------------------------------------------------------------------- #
def quantize32(x32: np.ndarray, scratch=None,
               out32: np.ndarray | None = None) -> np.ndarray:
    """Round every float32 value onto the fp16 grid, staying in float32.

    Bit-equivalent to ``x32.astype(float16).astype(float32)`` — including
    overflow to ±inf, ties-to-even and signed zeros — but built from plain
    float32/uint32 SIMD passes, so fp16-subnormal results cost nothing
    extra.  The result holds exactly-representable fp16 values; converting
    it to fp16 storage afterwards is exact (numpy's fast conversion path).
    The magic-number fast path covers every array whose magnitudes stay
    below 2¹⁵; anything larger or non-finite takes the exact fallback (see
    the module docstring).
    """
    if out32 is None:
        out32 = x32
    if x32.size == 0:
        return out32
    # the two temporaries are fresh arrays: numpy's allocation is cheaper
    # than an arena lookup at level size, and no slower at matrix size
    bits = x32.view(_BITS)
    magic = np.bitwise_and(bits, _EXP_MASK)
    if np.maximum.reduce(magic, axis=None) >= _EXP_FALLBACK:
        return _quantize32_exact(x32, scratch, out32)
    sign = np.bitwise_and(bits, _SIGN_MASK)
    np.maximum(magic, _EXP_FLOOR, out=magic)
    np.add(magic, _MAGIC_OFFSET, out=magic)
    magic32 = magic.view(STAGE)
    np.add(x32, magic32, out=out32)
    np.subtract(out32, magic32, out=out32)
    out_bits = out32.view(_BITS)
    np.bitwise_or(out_bits, sign, out=out_bits)   # −0 for tiny negatives
    return out32


def _quantize32_exact(x32: np.ndarray, scratch, out32: np.ndarray) -> np.ndarray:
    """:func:`quantize32` for any input: Veltkamp splitting in the normal
    range, explicit overflow to ±inf, the 0.75 magic constant on the
    subnormal grid, and inf/NaN carried through."""
    shape = x32.shape
    gamma = _buf(scratch, "q16_gamma", shape, STAGE)
    delta = _buf(scratch, "q16_delta", shape, STAGE)
    mask_a = _buf(scratch, "q16_mask_a", shape, np.bool_)
    mask_b = _buf(scratch, "q16_mask_b", shape, np.bool_)

    # Veltkamp: hi = fl(fl(c·x) + fl(x − fl(c·x))) is x rounded to 11 bits.
    # The split multiplicand is clamped to 2^16 first so c·x cannot overflow
    # for huge float32 inputs (anything clamped rounds to ±inf regardless,
    # and the clamp boundary 65536 itself lies beyond the fp16 maximum).
    clamped = np.clip(x32, np.float32(-65536.0), np.float32(65536.0), out=delta)
    np.multiply(clamped, _SPLIT, out=gamma)
    np.subtract(clamped, gamma, out=delta)
    np.add(gamma, delta, out=gamma)              # gamma = hi
    # values beyond the fp16 maximum round to ±inf (the 11-bit grid point
    # 65536 is not representable in fp16)
    np.greater(gamma, _F16_MAX, out=mask_a)
    np.copyto(gamma, np.float32(np.inf), where=mask_a)
    np.less(gamma, -_F16_MAX, out=mask_a)
    np.copyto(gamma, np.float32(-np.inf), where=mask_a)
    # subnormal grid: (x + 0.75) − 0.75 snaps onto multiples of 2⁻²⁴;
    # copysign repairs the −0 results
    np.add(x32, _SUBMAGIC, out=delta)
    np.subtract(delta, _SUBMAGIC, out=delta)
    np.copysign(delta, x32, out=delta)

    np.less(x32, _F16_MIN_NORMAL, out=mask_a)
    np.greater(x32, -_F16_MIN_NORMAL, out=mask_b)
    np.logical_and(mask_a, mask_b, out=mask_a)   # |x| < 2^-14 (False for NaN)
    np.isfinite(x32, out=mask_b)

    if out32 is not x32:
        np.copyto(out32, x32)                    # carries inf/NaN through
    np.copyto(out32, gamma, where=mask_b)
    np.copyto(out32, delta, where=mask_a)
    return out32


def round_into(x32: np.ndarray, out16: np.ndarray,
               scratch=None) -> np.ndarray:
    """Round an fp32 array to fp16 storage (numpy's float→half semantics).

    Quantizes on the fp32 side first (in place, so ``x32`` is consumed) so
    the final conversion is exact and never hits the scalar subnormal
    branch.
    """
    quantize32(x32, scratch=scratch)
    np.copyto(out16, x32, casting="unsafe")
    return out16


def segment_sums_round(prods32: np.ndarray, indptr: np.ndarray,
                       out16: np.ndarray, scratch=None) -> np.ndarray:
    """fp16 row sums of fp16-rounded products, staged through float32.

    ``prods32`` holds the exact float32 products (consumed: rounded onto
    the fp16 grid in place); ``out16[i]`` receives the fp16 sum of segment
    ``indptr[i]:indptr[i+1]`` — bit-identical to ``row_segment_sums`` run
    on the fp16 products, because numpy's fp16 reduction accumulates in
    float32 and rounds once.  ``prods32`` may be 2-D (one column per
    right-hand side, reduced along axis 0).
    """
    quantize32(prods32, scratch=scratch)
    sums32 = _buf(scratch, "half_segsum32", out16.shape, STAGE)
    row_segment_sums(prods32, indptr, sums32)
    return round_into(sums32, out16, scratch=scratch)


def binop_round(op, x32: np.ndarray, y32: np.ndarray,
                out16: np.ndarray | None = None, scratch=None) -> np.ndarray:
    """``round16(op(x, y))`` for fp32-staged operands.

    Bit-identical to ``op(x16, y16)`` on the fp16 originals — the ufunc's
    own per-element semantics are exactly this computation.
    """
    if out16 is None:
        out16 = np.empty(x32.shape, dtype=HALF)
    t = _buf(scratch, "half_binop_t", x32.shape, STAGE)
    op(x32, y32, out=t)
    return round_into(t, out16, scratch=scratch)


def scalar_mul_round(alpha, x32: np.ndarray, out16: np.ndarray | None = None,
                     scratch=None) -> np.ndarray:
    """``round16(alpha16 · x)``: the fp16 ``scal`` step, staged.

    ``alpha`` is rounded to fp16 first (matching
    ``np.float16(alpha) * x16``) and then expanded exactly to fp32 for the
    vectorized multiply.
    """
    if out16 is None:
        out16 = np.empty(x32.shape, dtype=HALF)
    t = _buf(scratch, "half_scal_t", x32.shape, STAGE)
    np.multiply(x32, np.float32(np.float16(alpha)), out=t)
    return round_into(t, out16, scratch=scratch)


def staged_axpy(alpha, x16: np.ndarray, y16: np.ndarray, scratch=None,
                out16: np.ndarray | None = None) -> np.ndarray:
    """``round16(round16(alpha16·x) + y)`` — the fp16 axpy, staged.

    Both intermediate roundings of the direct ufunc evaluation
    ``np.float16(alpha) * x16 + y16`` are preserved (the product is
    quantized onto the fp16 grid before the add), so the result is
    bit-identical.  ``scratch`` (a :class:`~repro.backends.Workspace`)
    hosts the fp32 staging buffers; without one, temporaries are allocated.
    """
    x32 = upcast(x16, _buf(scratch, "half_stage_x", x16.shape, STAGE),
                 scratch=scratch)
    t = _buf(scratch, "half_stage_t", x16.shape, STAGE)
    np.multiply(x32, np.float32(np.float16(alpha)), out=t)
    quantize32(t, scratch=scratch)               # round16(alpha·x), in fp32
    y32 = upcast(y16, x32, scratch=scratch)      # x32 is free again
    np.add(t, y32, out=t)
    if out16 is None:
        out16 = np.empty(x16.shape, dtype=HALF)
    return round_into(t, out16, scratch=scratch)
