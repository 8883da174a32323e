"""Native backend: compiled C kernels for the level-scheduled triangular
solve, every CSR product a solve plan issues (fp16, fp16-stored × fp32,
fp32 and fp64, and the fused residuals), the fp16 vector updates,
the separable stencil sweep, the fp16 diagonal scaling, the fp32 ↔ fp16
casts and the Richardson sweep in fp16, fp32 and fp64, each bit-identical to
its oracle.

numpy's per-call dispatch sets the floor of the ``fast`` engine's
level-scheduled ``trsv``: a level is a handful of rows, so every level costs
a dozen vectorized calls for little arithmetic.  ``native.c`` runs the whole
substitution — and the fp16 CSR products ``spmv_csr`` / ``spmv_axpy``, the
fp16 updates ``weighted_update`` / ``residual_update``, the fp16
``diag_scale`` (the Jacobi preconditioner's apply), the box-separable
``apply_stencil`` sweep in fp64, fp32 and fp16, and ``cast`` — fp32 → fp16
and fp16 → fp32, the nesting levels' boundary crossings that
``vo.cast_vector`` makes, which numpy converts in software — in one call
each.  ``cast`` runs C only from its instruction set's :data:`CAST_GATE`
entries on: below it numpy's ``astype`` costs less than the call's fixed
overhead.  The oracle of every kernel is ``reference`` (see the C file for
the recipes: rows in level order, each row sum in ``np.add.reduceat``'s
pairwise order, fp16 values on the fp32 grid rounded after every
operation), except the separable sweep's: ``fast``'s
``_apply_stencil_separable`` (per element and axis, the in-range taps
chained in tap order, then the diagonal term), which is only
tolerance-close to ``reference``'s CSR-order stencil.
Non-separable stencils, and every other kernel, are inherited from
:class:`~repro.backends.fast.FastBackend`, and so are the counter totals.

**The fp32 and fp64 products.**  Where ``fast`` runs scipy's compiled CSR
matvec — an fp32 or fp64 compute dtype, the matrix's arena given, int32
indices, and for the residual ``fast``'s ``fusable`` rule (``y`` and the
result in the compute dtype; otherwise the product and ``residual_update``
compose, as on ``fast``) — ``native`` runs one C call in scipy's order, its
oracle: a row's sum from +0 (the residual's from ``y_i``) adding
(subtracting) ``a_ij·x_j`` one by one in stored order, every product and
add rounded once.  F^m3's fp16-stored matrix at fp32 vectors reads the
matrix's fp16 plan, whose values are already widened exactly to fp32;
fp32- and fp64-valued matrices get a plan of their own.  Without the arena
``fast`` sums pairwise, and so ``native`` leaves those products to it.

**The Richardson sweep.**  ``richardson_sweep`` binds one C call that runs
all m steps of an R^m4 invocation (``RichardsonLevel.apply_batch`` without a
weight refresh) whose matrix values, vectors and triangular factors are all
fp16 (F3R's level), all fp32 or all fp64 (the fp32 and fp64 variants'), from
the kernels above, in the loop's order: the residual (``spmv_axpy``), M's
two triangular solves with IC(0)'s scaling between them, and
``weighted_update`` (ω rounded to the level's precision), so its bits are
the loop's.  What it records, and the
applications of M it counts, are the loop's too: the level measures one loop
invocation of the block shape and hands the sweep that record to replay.
Mixed precisions, other engines, fault proxies and wrapped applies keep the
loop.

**Row-interleaved plans.**  The triangular solves (fp64, fp32, fp16) and the
CSR products read a SELL-8 plan (:func:`_interleave`, after Kreutzer et
al.'s SELL-C-σ): the rows of one dependency level — or of the whole matrix
— packed eight to a chunk by term count, entry ``i`` of every row stored
side by side, so each of a vector's 8 lanes is one row and runs that row's
own rounding chain independently of the other seven.  Every lane performs
exactly its row's arithmetic; absent terms add −0.0, which changes no bit
in a pairwise sum, and a sequential fp32 / fp64 product reads each lane's
term count and skips them.
A row too long for a lane (more than 129 terms) and a level's lone
straggler get one-row chunks, summed as before.  A factor's plan is built
with vectorized numpy on its first solve — validated: the levels a
permutation of the rows, every dependency in a strictly earlier level —
and cached on it; a matrix's lives in its arena's ``native_csr`` memo.

**Instruction sets.**  The triangular solves, the fp16 kernels (the casts
among them), the products and the stencil sweeps are compiled twice from
the same C macros (:data:`ISAS`): a portable scalar set, which walks a
chunk lane by lane, and on x86-64 an AVX2 + F16C set (function-level target
attributes, not :data:`FLAGS`), whose chunk sums run a chunk's 8 rows in
the 8 lanes of one vector (fp64: two vectors of 4; a lone fp16 row keeps
numpy's 8 pairwise accumulators in them instead), whose sweeps chain 8
(fp64: 4) consecutive elements in the lanes of one, and which round with
the hardware's fp16 converters.
The library reports once whether this CPU runs the vector set
(:func:`isas`); the engine uses it where it does and the scalar set
elsewhere, and for any call whose strided gather index ``col · k`` might
overflow int32 (the sweeps form no int32 index).

**Build.**  ``native.c`` is compiled once with ``$CC`` (default ``cc``) and
:data:`FLAGS` — no ``-march=native``, no fast-math, no FMA contraction, no
``_Float16``.  The shared object lives in a per-user cache directory
(:func:`cache_dir`: ``$XDG_CACHE_HOME/repro-native``, else
``~/.cache/repro-native``, mode 0700), named by a hash of the source, the
flags and the compiler's ``--version``, and is written atomically (built
under a temporary name, then renamed), so concurrent processes never load a
half-written file.  A cached file that does not load, or loads with another
ABI, is rebuilt.

**Availability.**  :func:`library` builds or loads the library once per
process and runs :func:`self_check` on every instruction set this CPU runs:
every ported kernel, on small operands with fp16-subnormal products,
overflow, signed zeros, NaN and order-sensitive row sums, must equal its
oracle bit for bit.  Only then is ``native`` registered (and
the default engine, see :mod:`repro.backends`); otherwise one
``RuntimeWarning`` names the reason and ``fast`` serves.

**Threads.**  ctypes releases the interpreter lock for the duration of a
call, so solves on several threads run truly concurrently.  The kernels keep
no state: their fp32 scratch is allocated per call, never per factor, or
(the fp16 solve's copy of x, the stencil sweeps' buffers, the Richardson
sweeps' vectors) drawn from the calling thread's arena.  The plans cached on
a factor, the CSR plans and stencil plans cached in a matrix's or stencil's
arena, and the prebound calls cached beside them (:class:`NativeBackend`),
are immutable once built (a cross-thread race at worst builds them twice).
The kernels are serial.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import os
import shlex
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..perf.counters import Traffic
from ..perf.counters import record as record_traffic
from ..precision import (BYTES_PER_INDEX, Precision, as_precision,
                         precision_of_dtype, promote)
from .base import (axpy_traffic, cast_traffic, columns, diag_scale_traffic,
                   spmv_setup, spmv_traffic, stencil_traffic, trsv_traffic)
from .fast import FastBackend, _scipy_sparse, _scipy_sparsetools

__all__ = ["FLAGS", "ISAS", "NativeBackend", "NativeUnavailable", "cache_dir",
           "isas", "library", "library_path", "self_check"]

SOURCE = Path(__file__).with_name("native.c")
#: compile flags; the kernels' bit-identity depends on the absence of FMA
#: contraction and fast-math
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: must equal NATIVE_ABI in native.c
ABI = 9

_HALF = np.dtype(np.float16)
_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)
_I32 = np.dtype(np.int32)
_I64 = np.dtype(np.int64)
_FP16 = Precision.FP16
#: compute dtype -> (C trsv symbol, value dtype of its plan: fp16 values
#: expanded exactly to fp32)
_TRSV = {_F64: ("trsv_f64", _F64), _F32: ("trsv_f32", _F32),
         _HALF: ("trsv_f16", _F32)}
#: the largest gather index the AVX2 kernels form (col * k, as int32)
_INT32_MAX = 2 ** 31 - 1
#: rows per chunk of a row-interleaved plan: one AVX2 vector of fp32 lanes
_LANES = 8
#: the most terms a lane's row may have: its first term plus numpy's 8
#: accumulators over up to PW_BLOCKSIZE (128) more; a longer row's pairwise
#: sum halves, so it gets a chunk of its own
_LANE_TERMS = 129

_P = ctypes.c_void_p
_I = ctypes.c_int64
_TRSV_ARGS = ((_I, _P, _P, _P, _P, _P, _P, _P, _I), ctypes.c_int)
_TRSV16_ARGS = ((_I, _P, _P, _P, _P, _P, _P, _P, _I, _P), ctypes.c_int)
_SPMV_ARGS = ((_I, _I, _P, _P, _P, _P, _P, _P, _I), ctypes.c_int)
_AXPY_ARGS = ((_I, _I, _P, _P, _P, _P, _P, _P, _P, _I), ctypes.c_int)
#: the sequential fp32 / fp64 CSR product and residual: the plan's chunk
#: count and four arrays, its lane term counts, then x, (y,) the output, k
_SEQ_ARGS = ((_I, _P, _P, _P, _P, _P, _P, _P, _I), ctypes.c_int)
_SEQ_AXPY_ARGS = ((_I, _P, _P, _P, _P, _P, _P, _P, _P, _I), ctypes.c_int)
_WEIGHTED_ARGS = ((_I, _I, _P, _P, _P, _P), ctypes.c_int)
_RESIDUAL_ARGS = ((_I, _P, _P, _P), ctypes.c_int)
_STENCIL_ARGS = ((_I, _P, _I, _P, _P, _P, _I, _P, _P, _P), ctypes.c_int)
_DIAG_ARGS = ((_I, _I, _P, _P, _P), ctypes.c_int)
_CAST_ARGS = ((_I, _P, _P), ctypes.c_int)
#: n, m; A's plan (chunks and four arrays); the lower and the upper solve's
#: plans (chunks and five arrays each); the middle scaling; k; then the
#: per-call weights, v, z and the two scratch buffers
_SWEEP_ARGS = ((_I, _I, _I, _P, _P, _P, _P, _I, _P, _P, _P, _P, _P,
                _I, _P, _P, _P, _P, _P, _P, _I, _P, _P, _P, _P, _P), ctypes.c_int)
#: the fp32 / fp64 sweep: the same, A's lane term counts after k, and per
#: call the weights, v, z and the step vectors
_PLAIN_SWEEP_ARGS = ((_I, _I, _I, _P, _P, _P, _P, _I, _P, _P, _P, _P, _P,
                      _I, _P, _P, _P, _P, _P, _P, _I, _P, _P, _P, _P, _P),
                     ctypes.c_int)
#: every exported symbol's (argtypes, restype); pointers pass as addresses.
#: Names ending in ``_avx2`` are the AVX2 + F16C set, declared only where
#: ``repro_native_avx2()`` says it was compiled and this CPU runs it.
_SIGNATURES = {
    "repro_native_abi": ((), _I),
    "repro_native_avx2": ((), _I),
    "trsv_f64": _TRSV_ARGS,
    "trsv_f32": _TRSV_ARGS,
    "trsv_f16": _TRSV16_ARGS,
    "spmv_csr_f16": _SPMV_ARGS,
    "spmv_axpy_f16": _AXPY_ARGS,
    "weighted_update_f16": _WEIGHTED_ARGS,
    "residual_update_f16": _RESIDUAL_ARGS,
    "stencil_sep_f64": _STENCIL_ARGS,
    "stencil_sep_f32": _STENCIL_ARGS,
    "stencil_sep_f16": _STENCIL_ARGS,
    "diag_scale_f16": _DIAG_ARGS,
    "cast_f32_f16": _CAST_ARGS,
    "cast_f16_f32": _CAST_ARGS,
    "richardson_f16": _SWEEP_ARGS,
    "quantize32": ((_P, _P, _I), None),
    "spmv_csr_f32": _SEQ_ARGS,
    "spmv_csr_f64": _SEQ_ARGS,
    "spmv_axpy_f32": _SEQ_AXPY_ARGS,
    "spmv_axpy_f64": _SEQ_AXPY_ARGS,
    "richardson_f32": _PLAIN_SWEEP_ARGS,
    "richardson_f64": _PLAIN_SWEEP_ARGS,
    "trsv_f64_avx2": _TRSV_ARGS,
    "trsv_f32_avx2": _TRSV_ARGS,
    "trsv_f16_avx2": _TRSV16_ARGS,
    "spmv_csr_f16_avx2": _SPMV_ARGS,
    "spmv_axpy_f16_avx2": _AXPY_ARGS,
    "weighted_update_f16_avx2": _WEIGHTED_ARGS,
    "residual_update_f16_avx2": _RESIDUAL_ARGS,
    "stencil_sep_f64_avx2": _STENCIL_ARGS,
    "stencil_sep_f32_avx2": _STENCIL_ARGS,
    "stencil_sep_f16_avx2": _STENCIL_ARGS,
    "diag_scale_f16_avx2": _DIAG_ARGS,
    "cast_f32_f16_avx2": _CAST_ARGS,
    "cast_f16_f32_avx2": _CAST_ARGS,
    "richardson_f16_avx2": _SWEEP_ARGS,
    "quantize32_avx2": ((_P, _P, _I), None),
    "spmv_csr_f32_avx2": _SEQ_ARGS,
    "spmv_csr_f64_avx2": _SEQ_ARGS,
    "spmv_axpy_f32_avx2": _SEQ_AXPY_ARGS,
    "spmv_axpy_f64_avx2": _SEQ_AXPY_ARGS,
    "richardson_f32_avx2": _PLAIN_SWEEP_ARGS,
    "richardson_f64_avx2": _PLAIN_SWEEP_ARGS,
    "quantize32_avx2_disagreements": ((ctypes.c_uint64, ctypes.c_uint64),
                                      ctypes.c_uint64),
}
#: the kernels that exist once per instruction set: the triangular solves,
#: the fp16 kernels, the stencil sweeps, the products on assembled storage
#: and the Richardson sweeps
_PER_ISA = ("trsv_f64", "trsv_f32", "trsv_f16", "spmv_csr_f16", "spmv_axpy_f16", "weighted_update_f16",
            "residual_update_f16", "stencil_sep_f64", "stencil_sep_f32",
            "stencil_sep_f16", "diag_scale_f16", "cast_f32_f16", "cast_f16_f32",
            "richardson_f16", "quantize32", "spmv_csr_f32", "spmv_csr_f64",
            "spmv_axpy_f32", "spmv_axpy_f64", "richardson_f32", "richardson_f64")
#: compute dtype -> the suffix of its product kernels
_SFX = {_HALF: "f16", _F32: "f32", _F64: "f64"}
#: CSR kernel -> whether ``fast`` runs it at fp32 / fp64 in scipy's order
#: (the compiled kernels' oracle); elsewhere it sums pairwise, and so does
#: ``native``
_SCIPY_ORDER = {"spmv_csr": _scipy_sparse is not None,
                "spmv_axpy": _scipy_sparse is not None and _scipy_sparsetools is not None}
#: (source dtype, target dtype) -> C cast symbol
_CASTS = {(_F32, _HALF): "cast_f32_f16", (_HALF, _F32): "cast_f16_f32"}
#: per instruction set, the element count (n·k) from which ``cast`` runs its
#: compiled pass; below it numpy's ``astype`` costs less than the call's
#: fixed ~4 µs (ctypes, two addresses, the output).  Best-of timeit on
#: unit-norm vectors: the AVX2 + F16C set wins from ~0.7k entries
#: (fp32 → fp16) and ~1.5k (fp16 → fp32), the scalar one from ~6k and ~8k.
CAST_GATE = {"scalar": 8192, "avx2": 1536}
#: compute dtype -> C separable-sweep symbol
_STENCIL = {_F64: "stencil_sep_f64", _F32: "stencil_sep_f32",
            _HALF: "stencil_sep_f16"}
#: the instruction sets, by symbol suffix
ISAS = {"scalar": "", "avx2": "_avx2"}


class NativeUnavailable(RuntimeError):
    """The native library could not be built, loaded or trusted."""


# ---------------------------------------------------------------------- #
# Build and load
# ---------------------------------------------------------------------- #
def cache_dir() -> Path:
    """The per-user directory holding the compiled library."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-native"


def _compiler() -> tuple[list[str], str]:
    """``$CC`` as an argument list, and its ``--version`` text."""
    argv = shlex.split(os.environ.get("CC", "").strip() or "cc")
    if shutil.which(argv[0]) is None:
        raise NativeUnavailable(f"no C compiler: {argv[0]!r} not found")
    try:
        proc = subprocess.run([*argv, "--version"], capture_output=True,
                              text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise NativeUnavailable(f"C compiler {argv[0]!r} does not run: {exc}") from exc
    if proc.returncode != 0:
        raise NativeUnavailable(f"C compiler {argv[0]!r} does not run: "
                                f"{proc.stderr.strip()[-200:]}")
    return argv, proc.stdout


def library_path(compiler: tuple[list[str], str] | None = None) -> Path:
    """Where the library built from this source, flags and compiler lives."""
    argv, version = compiler or _compiler()
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), "\0".join(FLAGS).encode(),
                 "\0".join(argv).encode(), version.encode()):
        key.update(part)
        key.update(b"\0\0")
    return cache_dir() / f"native-{key.hexdigest()[:24]}.so"


def _private_dir(path: Path) -> None:
    """Create ``path`` (mode 0700) or check an existing one is ours alone:
    the library is code this process will execute."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
        if st.st_uid != os.getuid():
            raise NativeUnavailable(f"cache directory {path} belongs to "
                                    f"another user")
        if st.st_mode & 0o077:
            path.chmod(0o700)
    except OSError as exc:
        raise NativeUnavailable(f"cache directory {path} unusable: {exc}") from exc


def _build(argv: list[str], target: Path) -> Path:
    """Compile to a fresh file beside ``target``; returns its path."""
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run([*argv, *FLAGS, "-o", tmp, str(SOURCE)],
                              capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        os.unlink(tmp)
        raise NativeUnavailable(f"compiling {SOURCE.name} failed: {exc}") from exc
    if proc.returncode != 0:
        os.unlink(tmp)
        raise NativeUnavailable(f"compiling {SOURCE.name} failed: "
                                f"{proc.stderr.strip()[-400:]}")
    return Path(tmp)


def _open(path: Path) -> ctypes.CDLL:
    """Load ``path`` and declare every kernel's signature."""
    lib = ctypes.CDLL(str(path))
    lib.repro_native_avx2.restype = _I
    simd = lib.repro_native_avx2()
    for name, (argtypes, restype) in _SIGNATURES.items():
        if "_avx2" in name and not simd:
            continue
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    if lib.repro_native_abi() != ABI:
        raise OSError(f"{path.name} has ABI {lib.repro_native_abi()}, not {ABI}")
    return lib


def build_and_load() -> ctypes.CDLL:
    """The compiled library, from the cache or freshly built into it."""
    compiler = _compiler()
    target = library_path(compiler)
    _private_dir(target.parent)
    if target.is_file():
        try:
            return _open(target)
        except (OSError, AttributeError):
            pass                      # corrupt or stale: rebuild below
    # load the fresh build under its unique temporary name (a failed dlopen
    # of `target` may be remembered under that name), then publish it
    fresh = _build(compiler[0], target)
    try:
        lib = _open(fresh)
    except (OSError, AttributeError) as exc:
        fresh.unlink(missing_ok=True)
        raise NativeUnavailable(f"the freshly built library does not load: "
                                f"{exc}") from exc
    os.replace(fresh, target)
    return lib


_LOCK = threading.Lock()
_STATE: dict = {}


def library() -> ctypes.CDLL | None:
    """The built, loaded and self-checked library, or ``None`` when the
    engine is unavailable in this process (one ``RuntimeWarning`` says
    why).  Decided once per process."""
    with _LOCK:
        if "lib" not in _STATE:
            lib = None
            try:
                lib = build_and_load()
                self_check(*(NativeBackend(lib, isa) for isa in isas(lib)))
            except Exception as exc:       # any failure: fast keeps serving
                lib = None
                reason = (str(exc) if isinstance(exc, NativeUnavailable)
                          else f"{type(exc).__name__}: {exc}")
                warnings.warn(f"native kernel engine unavailable ({reason}); "
                              f"using 'fast'", RuntimeWarning, stacklevel=2)
            _STATE["lib"] = lib
        return _STATE["lib"]


# ---------------------------------------------------------------------- #
# The engine
# ---------------------------------------------------------------------- #
def isas(lib: ctypes.CDLL) -> tuple[str, ...]:
    """The instruction sets of :data:`ISAS` that ``lib`` runs on this CPU,
    the fastest last."""
    return ("scalar", "avx2") if lib.repro_native_avx2() else ("scalar",)


def _addr(a: np.ndarray) -> int:
    """The address of ``a``'s data: a ctypes view of its buffer (the cheap
    read), or numpy's array interface where ``a`` is read-only or empty."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.__array_interface__["data"][0]


_byref = ctypes.byref
_view = ctypes.c_char.from_buffer


def _ptr(a: np.ndarray):
    """``a``'s data as a per-call pointer argument: a reference to a ctypes
    view of its buffer, which a call passes as is (an int address it would
    convert first), or numpy's address where ``a`` is read-only or empty."""
    try:
        return _byref(_view(a))
    except (TypeError, ValueError):
        return a.__array_interface__["data"][0]


def _interleave(levels, rowptr, cols, values) -> tuple:
    """The row-interleaved plan (SELL-8, see ``native.c``) of the rows in
    ``levels`` — index arrays of independent rows, in dependency order —
    over CSR arrays ``rowptr`` / ``cols`` / ``values``: ``(meta, rows, cols,
    values)``, each chunk's (offset, lanes, blocks, rest), each chunk's 8
    lane rows, and the packed int32 columns and values (see :func:`_pack`).

    Within a level the rows go by term count, the fewest first, 8 to a
    chunk, so a chunk's lanes share nearly one shape; a row too long for a
    lane, and a level's one row past its last full chunk, get a chunk of
    their own."""
    widths = np.array([len(rows) for rows in levels], dtype=np.int64)
    order = (np.concatenate(levels).astype(np.int64) if levels
             else np.empty(0, dtype=np.int64))
    level = np.repeat(np.arange(widths.size), widths)
    terms = np.diff(rowptr)[order]
    by_terms = np.lexsort((terms, level))          # keeps the levels in order
    order, terms = order[by_terms], terms[by_terms]
    pos = np.arange(order.size)
    first = np.ones(order.size, dtype=bool)
    first[1:] = level[1:] != level[:-1]
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
    new = first | (terms > _LANE_TERMS) | (rank % _LANES == 0)
    starts = np.flatnonzero(new)
    chunk = np.cumsum(new) - 1
    lanes = np.diff(np.append(starts, order.size))
    lane = pos - starts[chunk]
    # a lane row's accumulator blocks, and the terms added one by one after
    # them (all of a short row's terms but the first)
    rest = np.maximum(terms - 1, 0)
    blocks = np.where(rest >= 8, rest // 8, 0)
    if starts.size:
        c_blocks = np.maximum.reduceat(blocks, starts)
        c_rest = np.maximum.reduceat(rest - 8 * blocks, starts)
    else:
        c_blocks = c_rest = np.empty(0, dtype=np.int64)
    single = lanes == 1
    c_blocks[single] = 0
    c_rest[single] = terms[starts[single]]
    size = np.where(single, c_rest, _LANES * (1 + 8 * c_blocks + c_rest))
    off = np.concatenate(([0], np.cumsum(size)))
    meta = np.ascontiguousarray(np.stack([off[:-1], lanes, c_blocks, c_rest], axis=1),
                                dtype=np.int64)
    lane_rows = np.repeat(order[starts], _LANES)
    lane_rows[_LANES * chunk + lane] = order
    # where each row's terms go: term t of a lane row at base + 8 t, past the
    # lane's own blocks `jump` further (after the chunk's blocks); a
    # one-lane chunk's row at base + t
    lanes_row = ~single[chunk]
    rule = np.empty((4, rowptr.size - 1), dtype=np.int64)
    rule[:, order] = (off[chunk] + np.where(lanes_row, lane, 0),
                      np.where(lanes_row, _LANES, 1), 8 * blocks,
                      np.where(lanes_row, 64 * (c_blocks[chunk] - blocks), 0))
    # the stored entries in CSR order: their rows and places in the row
    # (int32 where they fit: the largest transients of a plan build)
    index = np.int32 if rowptr[-1] <= _INT32_MAX else np.int64
    row = np.repeat(np.arange(rowptr.size - 1, dtype=index), np.diff(rowptr))
    t = np.arange(row.size, dtype=index)
    t -= rowptr[row].astype(index)
    dest = rule[1][row]
    dest *= t
    dest += rule[0][row]
    past = t > rule[2][row]
    del t
    dest[past] += rule[3][row[past]]
    del row, past
    packed_cols = np.full(off[-1], -1, dtype=np.int32)
    packed_cols[dest] = cols
    empty = (terms == 0) & lanes_row
    return (meta, lane_rows, packed_cols,
            _pack(values, dest, off[-1], off[chunk[empty]] + lane[empty]))


def _pack(values, dest, size, empty) -> np.ndarray:
    """``values`` at their slots ``dest`` of a plan of ``size`` slots; the
    padding −0.0 (x + −0.0 == x for every x, where +0.0 would turn a sum of
    −0 into +0), and +0.0, its sum, in an empty row's first slot
    ``empty``."""
    out = np.full(size, -0.0, dtype=values.dtype)
    out[dest] = values
    out[empty] = 0.0
    return out


def _trsv_layout(factor) -> tuple:
    """:func:`_interleave` of the factor's levels, its values in their own
    dtype, validated (its arrays consistent, the levels a permutation of the
    rows, every off-diagonal column in a strictly earlier level than its
    row) and cached on the factor."""
    layout = factor._fast_vals.get("native")
    if layout is None:
        rowptr = np.ascontiguousarray(factor.off_rowptr, dtype=np.int64)
        cols = np.ascontiguousarray(factor.off_cols, dtype=np.int64)
        n = factor.nrows
        order = (np.concatenate(factor.levels).astype(np.int64) if factor.levels
                 else np.empty(0, dtype=np.int64))
        if (rowptr.shape != (n + 1,) or rowptr[0] != 0 or np.any(np.diff(rowptr) < 0)
                or rowptr[-1] != cols.size or factor.off_vals.size != cols.size
                or (cols.size and (cols.min() < 0 or cols.max() >= n))
                or np.any(np.bincount(order, minlength=n) != 1)):
            raise ValueError("the factor's arrays are inconsistent")
        level = np.empty(n, dtype=np.int64)
        level[order] = np.repeat(np.arange(len(factor.levels)),
                                 [len(rows) for rows in factor.levels])
        if np.any(level[cols] >= np.repeat(level, np.diff(rowptr))):
            raise ValueError("the factor's levels break a dependency: a row "
                             "reads a row of its own or a later level")
        layout = factor._fast_vals["native"] = _interleave(factor.levels, rowptr, cols,
                                                           factor.off_vals)
    return layout


def _trsv_plan(factor, cdtype) -> tuple:
    """The arrays the C substitution reads, cached on the factor per compute
    dtype (immutable once built): its symbol, the chunk count, and the
    chunk records, lane rows, packed columns, packed values and per-lane
    inverse diagonal in the kernel's value dtype (fp16 ones expanded
    exactly to fp32), with their addresses."""
    key = ("native", cdtype)
    plan = factor._fast_vals.get(key)
    if plan is None:
        symbol, vdtype = _TRSV[cdtype]
        meta, rows, cols, packed = _trsv_layout(factor)
        vals = packed.astype(cdtype, copy=False).astype(vdtype, copy=False)
        inv = factor.inv_diag.astype(cdtype).astype(vdtype)[rows]
        arrays = (meta, rows, cols, vals, inv)
        plan = (symbol, len(meta), arrays, tuple(_addr(a) for a in arrays))
        factor._fast_vals[key] = plan
    return plan


def _stencil_plan(op, cdtype) -> tuple:
    """The arrays the C sweep reads for ``op.box_separable()`` in compute
    dtype ``cdtype`` — grid extents, taps per axis, tap offsets, and alpha
    followed by the tap weights, each rounded as ``fast``'s sweep rounds it
    (fp16 ones then expanded exactly to fp32) — with their addresses and
    whether alpha is nonzero."""
    alpha, taps = op.box_separable()
    if cdtype == _HALF:
        def value(w):
            return np.float32(np.float16(w))
    else:
        value = cdtype.type
    arrays = (np.asarray(op.dims, dtype=np.int64),
              np.array([len(t) for t in taps], dtype=np.int64),
              np.array([j for t in taps for j, _ in t], dtype=np.int64),
              np.array([value(alpha)] + [value(w) for t in taps for _, w in t],
                       dtype=_F32 if cdtype == _HALF else cdtype))
    return arrays, tuple(_addr(a) for a in arrays), int(alpha != 0.0)


class _CsrPlan:
    """The row-interleaved plan (every row one level) of CSR arrays, its
    values in ``vdtype`` (fp16 ones expanded exactly to fp32) — validated:
    consistent sizes, non-negative indices, since the C kernels index x
    without bounds checks.

    ``ncols`` is the column count the arrays need, ``lead`` the chunk count
    and the addresses of the plan's chunk records, lane rows, packed
    columns and packed values, which ``arrays`` keeps alive; the sequential
    products also read each lane's term count (:meth:`lane_terms`).  A
    product records the CSR arrays' stored entries and indices."""

    __slots__ = ("values", "indices", "indptr", "ncols", "nnz", "index_bytes",
                 "arrays", "lead", "lens")

    def __init__(self, values, indices, indptr, vdtype=_F32) -> None:
        if (indptr.ndim != 1 or indptr.size == 0 or indptr[0] != 0
                or indptr[-1] != indices.size or values.size != indices.size
                or np.any(np.diff(indptr) < 0)
                or (indices.size and indices.min() < 0)):
            raise ValueError("inconsistent CSR arrays")
        self.values, self.indices, self.indptr = values, indices, indptr
        self.ncols = int(indices.max()) + 1 if indices.size else 0
        self.nnz = values.size
        self.index_bytes = (values.size + indptr.size) * BYTES_PER_INDEX
        self.arrays = _interleave([np.arange(indptr.size - 1)], indptr.astype(np.int64),
                                  indices, values.astype(vdtype))
        self.lead = (len(self.arrays[0]), *(_addr(a) for a in self.arrays))
        self.lens = None

    def lane_terms(self) -> np.ndarray:
        """Each lane's term count (0 past a chunk's lanes), built on first
        use: what the sequential products read to skip the padding."""
        lens = self.lens
        if lens is None:
            meta, rows = self.arrays[:2]
            lens = np.diff(self.indptr)[rows].astype(_I32).reshape(-1, _LANES)
            lens[np.arange(_LANES) >= meta[:, 1:2]] = 0
            lens = self.lens = lens.ravel()
        return lens


def _csr_plan(values, indices, indptr, scratch, vdtype=_F32):
    """The plan of CSR arrays with int32 indices, values in ``vdtype``,
    cached in the matrix's arena ``scratch`` (one per value dtype: an fp16
    matrix's fp32 plan serves its fp16 and its fp32 products); ``False``
    for other index arrays."""
    if indices.dtype != _I32 or indptr.dtype != _I32:
        return False
    key = "native_csr" if vdtype == _F32 else ("native_csr", vdtype)
    plan = (scratch.memo(key, lambda: _CsrPlan(values, indices, indptr, vdtype))
            if scratch is not None else None)
    if plan is None or not (plan.values is values and plan.indices is indices
                            and plan.indptr is indptr):
        plan = _CsrPlan(values, indices, indptr, vdtype)
    return plan


def _check(status: int) -> None:
    if status != 0:
        raise MemoryError("native kernel could not allocate its scratch")


def _product(call, x, record):
    """``y = A·x`` by a prebound CSR product ``call``."""
    kernel, k, dtype, shape, out, traffic = call
    x_c = np.ascontiguousarray(x, dtype=dtype)
    y = np.empty(shape, dtype=dtype)
    _check(kernel(_ptr(x_c), _ptr(y), k))
    if record:
        record_traffic(traffic)
    return y if out is None else y.astype(out)


class _Call(NamedTuple):
    """A native kernel call resolved once per operand, input dtype, output
    precision and column count: what is left per call is the output
    allocation, the addresses, the C call and one traffic record."""

    #: the instruction set's C function with the plan's leading arguments
    #: bound (:func:`_bind`)
    kernel: object
    #: the operand's columns
    k: int
    #: the dtype the kernel reads its operand in and writes
    dtype: np.dtype
    #: the shape of the array the kernel writes
    shape: tuple
    #: the dtype the result is cast to before it is returned, or ``None``
    out: object
    #: the traffic of one call
    traffic: Traffic


def _bind(kernel, *lead, arrays=()):
    """``kernel`` with its leading arguments bound, converted once to the
    ctypes types it declares, holding ``arrays`` — the plan arrays whose
    addresses it binds — alive."""
    types = getattr(kernel, "argtypes", None)
    if types:
        lead = tuple(ctype(arg) for ctype, arg in zip(types, lead))
    bound = functools.partial(kernel, *lead)
    bound.arrays = arrays
    return bound


def _out_dtype(out_prec: Precision, dtype) -> np.dtype | None:
    """The dtype a kernel writing ``dtype`` casts its result to, or ``None``
    when that is ``dtype`` itself."""
    return None if out_prec.dtype == dtype else out_prec.dtype


class NativeBackend(FastBackend):
    """Compiled ``trsv``; CSR products and fused residuals
    at fp16, fp16-stored × fp32, fp32 and fp64 (the fp32 / fp64 ones where
    ``fast`` runs scipy's, in its order); fp16 vector updates, separable
    stencil sweeps, fp16 diagonal scaling, fp32 ↔ fp16 casts and the
    Richardson sweep of a uniform fp16, fp32 or fp64 level; everything else
    is ``fast``.

    ``isa`` picks the instruction set of :data:`_PER_ISA`'s kernels
    (:data:`ISAS`); by default the fastest that :func:`isas` reports for
    this CPU.

    **Prebound calls.**  Each compiled kernel call is resolved once per
    operand, input dtype, output precision and column count into a
    :class:`_Call`: the kernel of the instruction set with the plan's
    leading arguments bound, the output dtype and the call's traffic
    record.  It is cached beside the plan it binds — on the factor
    (``trsv``), in the matrix's arena (the CSR products, each call checked
    against the arrays it was made for) or the stencil's (the sweeps) — and,
    for the vector kernels, which have no
    plan, on the engine, dropped with the kernel table it was made from.  A
    call is then one lookup, the contiguity check, the output allocation,
    the addresses, one C call and one :func:`~repro.perf.counters.record`.
    Operands a kernel does not take are cached as ``False`` and go to
    ``fast``.
    """

    name = "native"

    #: the most vector-kernel calls the engine keeps (it forgets them all
    #: past this: one per operand shape and kernel is the steady state)
    MAX_CALLS = 1024

    def __init__(self, lib: ctypes.CDLL | None = None, isa: str | None = None) -> None:
        if lib is None:
            lib = library()
            if lib is None:
                raise NativeUnavailable("the native library is unavailable")
        supported = isas(lib)
        if isa is None:
            isa = supported[-1]
        elif isa not in supported:
            raise NativeUnavailable(f"instruction set {isa!r} is unavailable "
                                    f"on this host")
        self._lib = lib
        self.isa = isa
        self._half = {name: getattr(lib, name + ISAS[isa]) for name in _PER_ISA}
        self._scalar = {name: getattr(lib, name) for name in _PER_ISA}
        #: the size from which ``cast`` runs C (:data:`CAST_GATE`)
        self.cast_gate = CAST_GATE[isa]

    @property
    def _half(self) -> dict:
        """The kernels of ``isa`` (:data:`_PER_ISA`); the scalar ones,
        ``_scalar``, are the fallback for a call whose gather index col * k
        might overflow int32.  Replacing the table drops the vector calls
        bound from it."""
        return self._kernels

    @_half.setter
    def _half(self, kernels: dict) -> None:
        self._kernels = kernels
        self._calls: dict = {}

    def _half_kernels(self, rows: int, k: int) -> dict:
        """The fp16 kernels for an operand of ``rows`` rows and ``k``
        columns: the scalar set when a strided gather index might not fit
        in int32."""
        return self._half if rows * k <= _INT32_MAX else self._scalar

    def _remember(self, key, call):
        """Cache the vector-kernel call ``call`` under ``key``; returns it."""
        if len(self._calls) >= self.MAX_CALLS:
            self._calls.clear()
        self._calls[key] = call
        return call

    # ------------------------------------------------------------------ #
    def trsv(self, factor, b, out_precision=None, record=True):
        """Level-scheduled substitution in one C call over the factor's
        row-interleaved plan; an ``(n, k)`` block runs every chunk on each
        column."""
        key = (self, b.dtype, out_precision, b.shape)
        call = factor._fast_vals.get(key)
        if call is None:
            call = factor._fast_vals[key] = self._trsv_call(factor, b, out_precision)
        if not call:
            return super().trsv(factor, b, out_precision, record=record)
        kernel, k, dtype, shape, out, traffic = call
        b_c = np.ascontiguousarray(b, dtype=dtype)
        if dtype == _HALF:
            x = np.empty(shape, dtype=_HALF)
            work = factor.scratch().get("native_trsv32", (shape[0] + 1) * k, _F32)
            _check(kernel(_ptr(b_c), _ptr(x), k, _ptr(work)))
        else:
            # the zero row the plan's padding reads, just before x
            x = np.zeros(shape, dtype=dtype)[1:]
            _check(kernel(_ptr(b_c), _ptr(x), k))
        if record:
            record_traffic(traffic)
        return x if out is None else x.astype(out)

    def _trsv_call(self, factor, b, out_precision):
        """The solve with ``factor`` of right-hand sides like ``b``, or
        ``False`` for a factor too large for the plan's int32 columns."""
        vec_prec = precision_of_dtype(b.dtype)
        compute = promote(factor.precision, vec_prec)
        out_prec = as_precision(out_precision) if out_precision is not None else vec_prec
        cdtype = np.dtype(compute.dtype)
        n = factor.nrows
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ValueError(f"right-hand side of shape {b.shape} for a factor "
                             f"of {n} rows")
        if n >= _INT32_MAX:
            return False
        symbol, nchunks, arrays, addrs = _trsv_plan(factor, cdtype)
        k = columns(b)
        kernel = self._half_kernels(n, k)[symbol]
        shape = b.shape if cdtype == _HALF else (n + 1,) + b.shape[1:]
        return _Call(_bind(kernel, nchunks, *addrs, arrays=arrays), k, cdtype, shape,
                     _out_dtype(out_prec, cdtype),
                     trsv_traffic(factor, vec_prec, out_prec, compute, k))

    # ------------------------------------------------------------------ #
    def _csr_call(self, op, values, indices, indptr, x, out_precision, scratch):
        """The call of CSR kernel ``op`` (``spmv_csr`` or ``spmv_axpy``) on
        these arrays for operands like ``x``, or ``False`` where ``fast``'s
        arithmetic is not compiled: non-int32 indices, a residual rounded to
        another precision than its compute dtype, or an fp32 / fp64 product
        without the matrix's arena ``scratch`` (``fast`` then sums pairwise,
        not in scipy's order).  The arena caches the plan, and the call per
        operand dtype, shape and output precision for the arrays it was
        made for."""
        memo = scratch.memo("native_csr_calls", dict) if scratch is not None else {}
        key = (self, op, values.dtype, x.dtype, x.shape, out_precision)
        hit = memo.get(key)
        if hit is not None and hit[0] is values and hit[1] is indices and hit[2] is indptr:
            return hit[3]
        cdtype = np.dtype(spmv_setup(values.dtype, x.dtype, None)[2].dtype)
        call = False
        if cdtype == _HALF or (scratch is not None and _SCIPY_ORDER[op]):
            plan = _csr_plan(values, indices, indptr, scratch,
                             _F32 if cdtype == _HALF else cdtype)
            call = plan and self._bind_csr(plan, f"{op}_{_SFX[cdtype]}", x, out_precision)
        memo[key] = (values, indices, indptr, call)
        return call

    def _bind_csr(self, plan, name, x, out_precision):
        """The call of ``name`` on ``plan`` for operands like ``x``."""
        if x.ndim not in (1, 2) or x.shape[0] < plan.ncols:
            raise ValueError(f"operand of shape {x.shape} for a matrix with "
                             f"column indices up to {plan.ncols - 1}")
        mat_prec, vec_prec, compute, out_prec = spmv_setup(plan.values.dtype, x.dtype,
                                                           out_precision)
        cdtype = np.dtype(compute.dtype)
        residual = name.startswith("spmv_axpy")
        if residual and out_prec.dtype != cdtype:
            return False
        n, k = plan.indptr.size - 1, columns(x)
        traffic = spmv_traffic(mat_prec, vec_prec, out_prec, compute, n, plan.nnz,
                               plan.index_bytes, k)
        if residual:
            traffic = traffic.then(axpy_traffic(out_prec, out_prec, out_prec,
                                                compute, n, k))
        nchunks, *addrs = plan.lead
        if cdtype == _HALF:
            lens, lead = None, (nchunks, x.shape[0], *addrs)
        else:
            lens = plan.lane_terms()
            lead = (*plan.lead, _addr(lens))
        kernel = self._half_kernels(x.shape[0], k)[name]
        return _Call(_bind(kernel, *lead, arrays=(plan.arrays, lens)), k, cdtype,
                     (n,) + x.shape[1:], _out_dtype(out_prec, cdtype), traffic)

    def spmv_csr(self, values, indices, indptr, x, out_precision=None,
                 record=True, scratch=None):
        """``y = A·x`` in one C call: fp16 products rounded to fp16, summed
        in fp32, the sum rounded once; fp32 and fp64 (with the matrix's
        arena) each row in scipy's order, from +0 in stored order."""
        call = self._csr_call("spmv_csr", values, indices, indptr, x, out_precision,
                              scratch)
        if not call:
            return super().spmv_csr(values, indices, indptr, x, out_precision,
                                    record=record, scratch=scratch)
        return _product(call, x, record)

    def spmv_axpy(self, values, indices, indptr, x, y, out_precision=None,
                  record=True, scratch=None):
        """``r = y − A·x`` in one pass: for fp16 the products rounded to
        fp16, summed in fp32, the sum rounded once, then ``y − s`` rounded;
        for fp32 and fp64 (with the matrix's arena, ``y`` and the result in
        the compute dtype) each row from ``y`` minus its products one by
        one, in stored order."""
        call = self._csr_call("spmv_axpy", values, indices, indptr, x, out_precision,
                              scratch)
        if not call or y.dtype != call.dtype or y.shape != call.shape:
            return super().spmv_axpy(values, indices, indptr, x, y, out_precision,
                                     record=record, scratch=scratch)
        kernel, k, dtype, shape, _, traffic = call
        x_c, y_c = np.ascontiguousarray(x, dtype=dtype), np.ascontiguousarray(y)
        r = np.empty(shape, dtype=dtype)
        _check(kernel(_ptr(x_c), _ptr(y_c), _ptr(r), k))
        if record:
            record_traffic(traffic)
        return r

    # ------------------------------------------------------------------ #
    def apply_stencil(self, op, x, out_precision=None, record=True):
        """A box-separable stencil's sweep in one serial C call — ``fast``'s
        separable sweep, bit for bit; every other stencil, and an empty
        block, is ``fast``'s."""
        ws = op.scratch()
        memo = ws.memo("native_stencil", dict)
        key = (self, x.dtype, x.shape, out_precision)
        call = memo.get(key)
        if call is None:
            call = memo[key] = self._stencil_call(op, x, out_precision, memo)
        if not call:
            return super().apply_stencil(op, x, out_precision, record=record)
        kernel, _, dtype, shape, out, traffic = call
        x_c = np.ascontiguousarray(x, dtype=dtype)
        y = np.empty(shape, dtype=dtype)
        # the ping-pong buffers (and fp16's fp32 expansion of x)
        work = (ws.get("native_stencil32", 3 * x.size, _F32) if dtype == _HALF
                else ws.get("native_stencil", 2 * x.size, dtype))
        _check(kernel(_ptr(x_c), _ptr(y), _ptr(work)))
        if record:
            record_traffic(traffic)
        return y if out is None else y.astype(out)

    def _stencil_call(self, op, x, out_precision, memo):
        """The sweep of ``op`` over operands like ``x``, or ``False`` for a
        stencil that is not box-separable, a misshapen operand or an empty
        block; ``memo`` (the stencil arena's) keeps the plan per compute
        dtype."""
        if (op.box_separable() is None or x.ndim not in (1, 2)
                or x.shape[0] != op.nrows or columns(x) == 0):
            return False
        mat_prec, vec_prec, compute, out_prec = spmv_setup(op.values.dtype, x.dtype,
                                                           out_precision)
        cdtype = np.dtype(compute.dtype)
        plan = memo.get(cdtype)
        if plan is None:
            plan = memo[cdtype] = _stencil_plan(op, cdtype)
        arrays, (dims, ntaps, tap_j, coef), has_alpha = plan
        k = columns(x)
        kernel = _bind(self._half[_STENCIL[cdtype]], len(op.dims), dims, k, ntaps,
                       tap_j, coef, has_alpha, arrays=arrays)
        return _Call(kernel, k, cdtype, x.shape, _out_dtype(out_prec, cdtype),
                     stencil_traffic(mat_prec, vec_prec, out_prec, compute, op.nrows,
                                     op.nnz, op.npoints, k))

    def diag_scale(self, scale, x, out_precision=None, record=True, scratch=None):
        """``diag(scale) @ x`` in one C pass when both are fp16:
        ``round16(scale_i · x_ij)``."""
        if not (scale.dtype == _HALF and x.dtype == _HALF and x.ndim in (1, 2)
                and scale.shape == x.shape[:1]):
            return super().diag_scale(scale, x, out_precision, record=record,
                                      scratch=scratch)
        key = ("diag_scale_f16", x.shape, out_precision)
        call = self._calls.get(key)
        if call is None:
            out_prec = as_precision(out_precision) if out_precision is not None else _FP16
            n, k = x.shape[0], columns(x)
            call = self._remember(key, _Call(
                _bind(self._half["diag_scale_f16"], n, k), k, _HALF, x.shape,
                _out_dtype(out_prec, _HALF),
                diag_scale_traffic(_FP16, _FP16, out_prec, _FP16, n, k)))
        kernel, _, _, shape, out, traffic = call
        s16, x16 = np.ascontiguousarray(scale), np.ascontiguousarray(x)
        result = np.empty(shape, dtype=_HALF)
        _check(kernel(_ptr(s16), _ptr(x16), _ptr(result)))
        if record:
            record_traffic(traffic)
        return result if out is None else result.astype(out)

    def cast(self, x, precision, record=True):
        """fp32 → fp16 (rounded to nearest even) and fp16 → fp32 (exact) in
        one C pass over a C-contiguous vector or block of at least
        :attr:`cast_gate` entries; every other cast is the inherited
        ``astype``."""
        key = ("cast", x.dtype, precision, x.shape)
        call = self._calls.get(key)
        if call is None:
            p = as_precision(precision)
            symbol = _CASTS.get((x.dtype, p.dtype)) if x.size >= self.cast_gate else None
            k = columns(x)
            call = self._remember(key, symbol is not None and _Call(
                _bind(self._half[symbol], x.size), k, p.dtype, x.shape, None,
                cast_traffic(precision_of_dtype(x.dtype), p, x.size, k)))
        if not call or not x.flags.c_contiguous:
            return super().cast(x, precision, record=record)
        kernel, _, dtype, shape, _, traffic = call
        out = np.empty(shape, dtype=dtype)
        _check(kernel(_ptr(x), _ptr(out)))
        if record:
            record_traffic(traffic)
        return out

    # ------------------------------------------------------------------ #
    def residual_update(self, v, az, out_precision=None, record=True,
                        scratch=None):
        """``r = v − az`` in one C pass when all three are fp16."""
        call = False
        if v.dtype == _HALF and az.dtype == _HALF and v.shape == az.shape:
            key = ("residual_update_f16", v.shape, out_precision)
            call = self._calls.get(key)
            if call is None:
                half_out = out_precision is None or as_precision(out_precision) is _FP16
                k = columns(v)
                call = self._remember(key, half_out and _Call(
                    _bind(self._half["residual_update_f16"], v.size), k, _HALF, v.shape,
                    None, axpy_traffic(_FP16, _FP16, _FP16, _FP16, v.shape[0], k)))
        if not call:
            return super().residual_update(v, az, out_precision, record=record,
                                           scratch=scratch)
        kernel, _, _, shape, _, traffic = call
        v_c, az_c = np.ascontiguousarray(v), np.ascontiguousarray(az)
        r = np.empty(shape, dtype=_HALF)
        _check(kernel(_ptr(v_c), _ptr(az_c), _ptr(r)))
        if record:
            record_traffic(traffic)
        return r

    def weighted_update(self, z, mr, omega, vec_prec: Precision, scratch=None,
                        record=True):
        """``z + ω·mr`` in one C pass when all three are fp16:
        ``round16(round16(ω16·mr) + z)``, ``ω`` one weight or one per
        column."""
        if not (z.dtype == _HALF and mr.dtype == _HALF and z.shape == mr.shape
                and vec_prec is _FP16
                and (isinstance(omega, float) or np.ndim(omega) <= 1)):
            return super().weighted_update(z, mr, omega, vec_prec,
                                           scratch=scratch, record=record)
        key = ("weighted_update_f16", mr.shape)
        call = self._calls.get(key)
        if call is None:
            k = columns(mr)
            call = self._remember(key, _Call(
                _bind(self._half["weighted_update_f16"], mr.size, k), k, _HALF,
                mr.shape, None, axpy_traffic(_FP16, _FP16, _FP16, _FP16, mr.shape[0], k)))
        kernel, k, _, shape, _, traffic = call
        alpha = self._alpha(omega, k)
        mr_c, z_c = np.ascontiguousarray(mr), np.ascontiguousarray(z)
        out = np.empty(shape, dtype=_HALF)
        _check(kernel(_ptr(alpha), _ptr(mr_c), _ptr(z_c), _ptr(out)))
        if record:
            record_traffic(traffic)
        return out

    def _alpha(self, omega, k: int) -> np.ndarray:
        """``weighted_update``'s per-column weights: ``omega`` (one weight or
        ``k``) rounded to fp16, as ``vo.axpy`` rounds it, in fp32; one
        weight's array is cached per value and ``k``."""
        if not isinstance(omega, float):
            alpha = np.empty(k, dtype=_F32)
            alpha[...] = np.float16(omega)
            return alpha
        key = ("alpha", omega, k)
        alpha = self._calls.get(key)
        if alpha is None:
            alpha = self._remember(key, np.full(k, np.float16(omega), dtype=_F32))
        return alpha

    # ------------------------------------------------------------------ #
    def richardson_sweep(self, plan, preconditioner, m: int, v, traffic,
                         applications: int):
        """One compiled call for a Richardson invocation of ``m`` steps on
        operands like ``v`` (see ``RichardsonLevel.apply_batch``), recording
        ``traffic`` and adding ``applications`` to the preconditioner's
        count — the loop's, measured — or ``None`` where the operands are
        not its own: ``plan`` bound to another engine; not a CSR product
        whose values, vectors and plan precision are all fp16, all fp32 or
        all fp64 (an fp32 / fp64 CSR residual also needs
        scipy's order, which ``fast`` and so the loop follow); a
        preconditioner with no :meth:`triangular_form` in that precision;
        an empty block.  The sweep runs the loop's kernels in its order, so
        its bits are the loop's."""
        cdtype = v.dtype
        if (plan.backend is not self or cdtype not in _SFX
                or plan.vec_prec.dtype != cdtype or v.ndim != 2 or v.shape[1] == 0
                or plan.kind != "csr"):
            return None
        n, k = v.shape
        a = plan.storage
        if a.values.dtype != cdtype:
            return None
        a_plan = ((cdtype == _HALF or _SCIPY_ORDER["spmv_axpy"])
                  and _csr_plan(a.values, a.indices, a.indptr, a.scratch(),
                                _TRSV[cdtype][1]))
        triangular_form = getattr(preconditioner, "triangular_form", None)
        form = triangular_form() if triangular_form is not None else None
        if (not a_plan or form is None or a_plan.indptr.size - 1 != n
                or a_plan.ncols > n or n >= _INT32_MAX):
            return None
        lower, scale, upper = form
        prec = precision_of_dtype(cdtype)
        if not (lower.precision is prec and upper.precision is prec
                and lower.nrows == n and upper.nrows == n
                and (scale is None or (scale.dtype == cdtype and scale.shape == (n,)))):
            return None
        kernel = self._bind_sweep(a_plan, form, m, n, k, cdtype)
        return _Sweep(kernel, (n, k), cdtype, preconditioner, applications, traffic)

    def _bind_sweep(self, a_plan, form, m: int, n: int, k: int, cdtype):
        """The compiled sweep of ``m`` steps in ``cdtype`` over A's plan
        ``a_plan`` and the preconditioner's ``form`` on ``(n, k)`` blocks,
        its operands bound."""
        lower, scale, upper = form
        _, l_chunks, l_arrays, l_addrs = _trsv_plan(lower, cdtype)
        _, u_chunks, u_arrays, u_addrs = _trsv_plan(upper, cdtype)
        scale_c = None if scale is None else np.ascontiguousarray(scale)
        a_chunks, *a_addrs = a_plan.lead
        lead = (n, m, a_chunks, *a_addrs, l_chunks, *l_addrs, u_chunks, *u_addrs,
                None if scale_c is None else _addr(scale_c), k)
        # the sequential fp32 / fp64 CSR residual's lane term counts; the
        # fp16 products take none
        lens = None if cdtype == _HALF else a_plan.lane_terms()
        if lens is not None:
            lead += (_addr(lens),)
        kernel = self._half_kernels(n, k)[f"richardson_{_SFX[cdtype]}"]
        return _bind(kernel, *lead, arrays=(a_plan.arrays, l_arrays, u_arrays, scale_c,
                                            lens))


class _Sweep:
    """A Richardson invocation bound to its operands: the compiled kernel
    with A's and M's plans bound, the block shape and dtype, the
    preconditioner and the applications of it to count, and the traffic to
    record (the loop's, measured).  Called with the block ``v``, the level's
    weights and the calling thread's arena; returns ``z``."""

    __slots__ = ("kernel", "shape", "dtype", "preconditioner", "applications",
                 "traffic", "buffers", "_omega")

    def __init__(self, kernel, shape, dtype, preconditioner, applications,
                 traffic) -> None:
        self.kernel, self.shape, self.dtype = kernel, shape, dtype
        self.preconditioner, self.applications = preconditioner, applications
        self.traffic = traffic
        n, k = shape
        if dtype == _HALF:
            # the residual, y and mr; the weights' row and the solves' fp32 x
            self.buffers = (("native_sweep16", 3 * n * k, _HALF),
                            ("native_sweep32", (n + 2) * k, _F32))
        else:
            # the residual, y and mr after their zero rows
            self.buffers = (("native_sweep", (3 * n + 2) * k, dtype),)
        #: the last weights seen and the kernel's: fp16 values in fp32, fp32
        #: values, or the fp64 weights themselves
        self._omega = (None, None)

    def __call__(self, v, weights, scratch):
        key = weights.tobytes()
        seen, omega = self._omega
        if seen != key:
            # each weight rounded from its own value, as weighted_update does
            omega = weights.astype(self.dtype).astype(_TRSV[self.dtype][1])
            self._omega = (key, omega)
        v_c = np.ascontiguousarray(v)
        z = np.empty(self.shape, dtype=self.dtype)
        _check(self.kernel(_ptr(omega), _ptr(v_c), _ptr(z),
                           *(_ptr(scratch.get(*b)) for b in self.buffers)))
        self.preconditioner.num_applications += self.applications
        record_traffic(self.traffic)
        return z


# ---------------------------------------------------------------------- #
# The load-time self-check
# ---------------------------------------------------------------------- #
def _check_operands(rng) -> tuple:
    """A 160-row lower factor in three levels and a 160 x 160 CSR matrix,
    each with a 140-entry row (the halving branch of the pairwise sum),
    short rows and empty ones, and a row whose products are all −0."""
    n, wide = 160, 140
    rows, cols = [], []
    for r in range(wide, n):                   # level 0: rows 0..139, no deps
        if r == wide:
            deps = np.arange(wide)             # the long row
        elif r == wide + 1:
            deps = np.arange(3)                # the all −0 products row
        elif r < 152:
            deps = np.sort(rng.choice(wide, int(rng.integers(1, 20)), replace=False))
        else:                                  # level 2: one dep in level 1
            deps = np.sort(np.concatenate([rng.choice(wide, 5, replace=False),
                                           [wide + 2 + (r - 152)]]))
        rows += [r] * deps.size
        cols += list(deps)
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(rowptr, np.asarray(rows) + 1, 1)
    np.cumsum(rowptr, out=rowptr)
    vals = rng.uniform(-1, 1, len(cols)) * np.exp(rng.uniform(-9, 4, len(cols)))
    vals[rowptr[wide + 1]:rowptr[wide + 2]] = -0.0
    inv = rng.uniform(0.5, 2.0, n)
    factor = _check_factor([np.arange(wide), np.arange(wide, 152), np.arange(152, n)],
                           rowptr, np.asarray(cols, dtype=np.int32), vals, inv)
    b = rng.uniform(-1, 1, (n, 2)) * np.exp(rng.uniform(-12, 10, (n, 2)))
    b[:3] = np.abs(b[:3])                      # positive x under the −0 row
    b[wide + 1] = -0.0
    b[5, 1] = np.nan
    # the CSR matrix: the factor's pattern plus its transpose
    dense = np.zeros((n, n))
    dense[rows, cols] = vals
    dense += dense.T
    dense[np.arange(n), np.arange(n)] = rng.uniform(-2, 2, n)
    dense[[9, 10]] = 0.0                       # empty rows
    return factor, b, dense


def _chained_levels(rng) -> tuple:
    """A 36-row lower factor of six levels, 5, 9, 3, 11, 1 and 7 rows wide,
    every row reading every row of the level before, and a right-hand side
    of two columns: any chunk that packs rows of two levels together holds
    a row and a row it reads."""
    widths = (5, 9, 3, 11, 1, 7)
    bounds = np.concatenate(([0], np.cumsum(widths)))
    levels = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    deps = [np.empty(0, dtype=np.int64)] * widths[0]
    for before, rows in zip(levels, levels[1:]):
        deps += [before] * rows.size
    rowptr = np.concatenate(([0], np.cumsum([d.size for d in deps])))
    cols = np.concatenate(deps).astype(np.int32)
    vals = rng.uniform(0.25, 1.0, cols.size) * rng.choice([-1.0, 1.0], cols.size)
    factor = _check_factor(levels, rowptr, cols, vals, rng.uniform(0.5, 2.0, bounds[-1]))
    return factor, rng.uniform(0.5, 2.0, (bounds[-1], 2))


def _check_factor(levels, rowptr, cols, vals, inv):
    """A self-check lower factor: the fields the engines read, fp64, with
    its own scratch arena."""
    from types import SimpleNamespace

    from .workspace import Workspace

    arena = Workspace()
    return SimpleNamespace(
        nrows=inv.size, levels=levels, off_rowptr=rowptr, off_cols=cols, off_vals=vals,
        inv_diag=inv, unit_diagonal=False, precision=Precision.FP64, _fast_vals={},
        _fast_plan=None, scratch=lambda: arena)


def _cancelling_rows(rng) -> tuple:
    """fp16 CSR arrays of 48 rows of 5, 9, 13 and 17 entries (a short row,
    one or two 8-term blocks, with and without a remainder) over 17 columns:
    ±2^13 mixed with values near its float32 half-ulp, so an fp32 row sum
    depends on the order its terms meet in (any order but numpy's shows
    after the fp16 rounding), and an x of ±1."""
    lengths = np.tile([5, 9, 13, 17], 12)
    indptr = np.zeros(lengths.size + 1, dtype=np.int32)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.concatenate([np.arange(n, dtype=np.int32) for n in lengths])
    nnz = indices.size
    values = np.where(rng.random(nnz) < 0.3, 2.0 ** 13,
                      rng.uniform(2.0 ** -13, 2.0 ** -10, nnz))
    values *= rng.choice([-1.0, 1.0], nnz)
    x = rng.choice([-1.0, 1.0], (17, 2))
    return values.astype(_HALF), indices, indptr, x.astype(_HALF)


def _separable_stencil():
    """A 5 x 4 x 3 box-separable stencil, alpha = 2.5 beside the sweep:
    axis 0 taps (-1, 2.5, 0.375), axis 1 (-1, 1, -1) and axis 2
    (-1, -0.75, 1.25) — ±1 taps and rounded ones, on every axis an interior
    and both edge planes, in the 8-wide passes and the tails after them."""
    import itertools

    from ..operators import StencilOperator

    k0, k1, k2 = (-1.0, 2.5, 0.375), (1.0, -1.0, 1.0), (1.0, 0.75, -1.25)
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
    values = np.array([k0[i + 1] * k1[j + 1] * k2[m + 1] for i, j, m in offsets])
    values[13] += 2.5                          # the centre, offset (0, 0, 0)
    return StencilOperator((5, 4, 3), offsets, values)


def _cast_patterns() -> tuple:
    """fp16 and fp32 operands of the two casts, each past
    :data:`CAST_GATE`: every third fp16 bit pattern (normal, subnormal,
    −inf and NaN among them), and float32 values at the fp16 rounding
    boundaries — on every seventh finite fp16 value (both mantissa
    parities, normal and subnormal), each value, the tie above it and the
    float32 neighbours of that tie; the overflow edge 65504 / 65519.996 /
    65520; 0, inf, a quiet NaN and two NaNs whose payload lies only below
    bit 13 — with both signs."""
    every16 = np.arange(0, 2 ** 16, 3, dtype=np.uint16).view(_HALF)
    h16 = np.arange(0, 0x7C00, 7, dtype=np.uint16).view(_HALF)
    h = h16.astype(_F32)
    up = np.nextafter(h16, _HALF.type(np.inf)).astype(_F64)
    tie = ((h + up) / 2).astype(_F32)
    edge = np.array([65504.0, 65519.996, 65520.0, 0.0, np.inf], dtype=_F32)
    nans = np.array([0x7F800001, 0x7F801FFF, 0x7FC00000], dtype=np.uint32).view(_F32)
    values = np.concatenate([h, tie, np.nextafter(tie, _F32.type(0)),
                             np.nextafter(tie, _F32.type(np.inf)), edge, nans])
    return every16, np.concatenate([values, -values])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype, NaN positions and every non-NaN bit pattern."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    kind = {2: np.uint16, 4: np.uint32, 8: np.uint64}[a.dtype.itemsize]
    return bool(np.array_equal(nan_a, nan_b)
                and np.array_equal(a.view(kind)[~nan_a], b.view(kind)[~nan_b]))


def self_check(*backends: NativeBackend) -> None:
    """Every native kernel of each backend's instruction set against its
    oracle, bit for bit — ``reference``, and ``fast`` for the separable
    stencil sweep (each oracle runs once for all the backends); raises
    :class:`NativeUnavailable` on the first difference."""
    from ..sparse import CSRMatrix
    from .reference import ReferenceBackend

    reference, fast = ReferenceBackend(), FastBackend()
    rng = np.random.default_rng(20251018)
    factor, b, dense = _check_operands(rng)
    indptr = np.zeros(dense.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(dense, axis=1), out=indptr[1:])
    indices = np.nonzero(dense)[1].astype(np.int32)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        values16 = dense[dense != 0].astype(_HALF)
        every16, narrow = _cast_patterns()
        cases = [("cast fp16 -> fp32", lambda be: be.cast(every16, _F32, record=False)),
                 ("cast fp32 -> fp16", lambda be: be.cast(narrow, _FP16, record=False))]
        chained, chained_b = _chained_levels(rng)
        for dtype in (_F64, _F32, _HALF):
            for f, rhs in ((_cast_factor(factor, dtype), b),
                           (_cast_factor(chained, dtype), chained_b)):
                for r in (rhs[:, 0].astype(dtype), rhs.astype(dtype)):
                    cases.append((f"trsv {dtype}", lambda be, f=f, r=r:
                                  be.trsv(f, r, record=False)))
        x16, y16 = (b * 1e-3).astype(_HALF), b[::-1].astype(_HALF)
        for x, y in ((x16[:, 0], y16[:, 0]), (x16, y16)):
            cases.append(("spmv_csr fp16", lambda be, x=x: be.spmv_csr(
                values16, indices, indptr, x, record=False)))
            cases.append(("spmv_axpy fp16", lambda be, x=x, y=y: be.spmv_axpy(
                values16, indices, indptr, x, y, record=False)))
        cvals, cidx, cptr, cx = _cancelling_rows(rng)
        for x in (cx[:, 0], cx):
            cases.append(("spmv_csr fp16 (row-sum order)", lambda be, x=x: be.spmv_csr(
                cvals, cidx, cptr, x, record=False)))
        # 157 rows: 8-wide passes plus a tail, per-column weights that wrap
        # mid-vector, and a weight that overflows fp16 products
        for z, mr, omega in ((y16[:157, 0], x16[:157, 0], 0.97),
                             (y16[:157], x16[:157], np.array([0.5, 3.0e4]))):
            cases.append(("weighted_update fp16", lambda be, z=z, mr=mr, omega=omega:
                          be.weighted_update(z.copy(), mr, omega, _FP16, record=False)))
            cases.append(("residual_update fp16", lambda be, z=z, mr=mr:
                          be.residual_update(z, mr, record=False)))
            # one row per 8 lanes plus a tail at both widths
            cases.append(("diag_scale fp16", lambda be, z=z, mr=mr: be.diag_scale(
                z[:, 0] if z.ndim == 2 else z, mr, record=False)))
        # one and three steps over the CSR matrix, the factor as both solves
        # with and without a scaling between them, and weights that are not
        # fp16 values; the residuals' tiny negative entries make updates of
        # −0, which step 0 adds to +0
        lower16 = _cast_factor(factor, _HALF)
        scale16 = rng.uniform(0.5, 2.0, dense.shape[0]).astype(_HALF)
        v = rng.uniform(-1, 1, (dense.shape[0], 2)) * np.exp(
            rng.uniform(-16, 0, (dense.shape[0], 2)))
        v[::7] = -6e-8
        a16 = CSRMatrix(values16, indices, indptr, dense.shape)
        for vk, scale, weights in itertools.product(
                (v[:, :1].astype(_HALF), v.astype(_HALF)), (None, scale16),
                (np.array([0.3]), np.array([0.3, 1.1, 2.7]))):
            cases.append(("richardson_f16", lambda be, vk=vk, scale=scale, w=weights:
                          _richardson(be, a16, lower16, scale, w, vk)))
        cases = [(label, run, reference) for label, run in cases]
        stencil = _separable_stencil()
        # magnitudes from fp16-subnormal to past its range, ±0, and NaN and
        # ±inf in the second column only; and an fp16 stencil computed in fp32
        x = b[:60].copy()
        x[[7, 20], 0] = -0.0
        x[[21, 40], 1] = [np.inf, -np.inf]
        for mat, vec in ((_F64, _F64), (_F32, _F32), (_HALF, _HALF), (_HALF, _F32)):
            op, xv = stencil.astype(precision_of_dtype(mat)), x.astype(vec)
            cases.append((f"apply_stencil {mat} x {vec}", lambda be, op=op, xv=xv:
                          be.apply_stencil(op, xv, record=False), fast))
        cases += [(label, run, fast) for label, run in _product_cases(dense, b)]
        cases += [(label, run, fast) for label, run in _sweep_cases(factor, dense, rng)]
        for label, run, oracle in cases:
            want = run(oracle)
            for backend in backends:
                if not _same_bits(run(backend), want):
                    raise NativeUnavailable(f"self-check failed: {label} "
                                            f"({backend.isa}) differs from "
                                            f"the {oracle.name} backend")


def _product_cases(dense, b) -> list:
    """``(label, run)`` pairs of the fp32 and fp64 products, whose oracle is
    ``fast``: the self-check matrix at fp16 (times fp32), fp32 and fp64 —
    CSR with its arena (scipy's order: its empty rows, its 140-term row in
    a chunk of its own) — on a vector and blocks of 1 and 3 columns holding
    inf, NaN and subnormal entries, residuals whose ``y`` has −0 entries,
    and the residual of the non-negative matrix at ``x = +0`` and
    ``y = −0``, whose every row stays −0 unless padding enters its sum."""
    from ..sparse import CSRMatrix

    csr = CSRMatrix.from_dense(dense)
    x = np.concatenate([b, -b[:, :1] * 1e-3], axis=1)
    x[0, 2] = np.inf
    x[9, 0], x[12, 1] = 3e-41, 5e-320          # fp32 and fp64 subnormals
    y = x[::-1].copy()
    y[::6] = -0.0
    cases = []
    for mat, vec in ((_HALF, _F32), (_F32, _F32), (_F64, _F64)):
        a = csr.astype(precision_of_dtype(mat))
        label = f"{mat} x {vec}"
        for width in (None, 1, 3):
            xv, yv = ((np.ascontiguousarray(v[:, 0] if width is None else v[:, :width],
                                            dtype=vec)) for v in (x, y))
            cases += [
                (f"spmv_csr {label}", lambda be, a=a, xv=xv: be.spmv_csr(
                    a.values, a.indices, a.indptr, xv, record=False,
                    scratch=a.scratch())),
                (f"spmv_axpy {label}", lambda be, a=a, xv=xv, yv=yv: be.spmv_axpy(
                    a.values, a.indices, a.indptr, xv, yv, record=False,
                    scratch=a.scratch()))]
        positive = CSRMatrix(np.abs(a.values), a.indices, a.indptr, a.shape)
        zero, minus_zero = np.zeros((csr.nrows, 3), vec), np.full((csr.nrows, 3), -0.0, vec)
        cases.append((f"spmv_axpy {label} (padding)", lambda be, p=positive, z=zero,
                      m=minus_zero: be.spmv_axpy(p.values, p.indices, p.indptr, z, m,
                                                 record=False, scratch=p.scratch())))
    return cases


def _sweep_cases(factor, dense, rng) -> list:
    """``(label, run)`` pairs of the fp32 and fp64 Richardson sweeps, whose
    oracle is the level's loop on ``fast``: one and three steps (weights
    that are not fp32 values) over the self-check matrix as CSR with its
    arena (scipy's order: its 140-term row), the factor as both solves with
    and without a scaling between them, on blocks of 1 and 3 columns holding
    fp32 and fp64 subnormals, inf and NaN (the third column), and −0 on rows
    without terms in the factor, whose M·r is −0: an update of −0, which
    step 0 adds to +0."""
    from ..sparse import CSRMatrix

    n = dense.shape[0]
    csr = CSRMatrix.from_dense(dense)
    v = rng.uniform(-1, 1, (n, 3)) * np.exp(rng.uniform(-12, 0, (n, 3)))
    v[::5] = -0.0
    v[3, 0], v[4, 1] = 3e-41, 5e-320
    v[[20, 30], 2] = np.inf, np.nan
    scale = rng.uniform(0.5, 2.0, n)
    cases = []
    for dtype in (_F32, _F64):
        lower = _cast_factor(factor, dtype)
        a = csr.astype(precision_of_dtype(dtype))
        for vk, s, weights in itertools.product(
                (v[:, :1].astype(dtype), v.astype(dtype)), (None, scale.astype(dtype)),
                (np.array([0.3]), np.array([0.3, 1.1, 2.7]))):
            cases.append((f"richardson_{_SFX[dtype]}",
                          lambda be, a=a, lower=lower, vk=vk, s=s, w=weights:
                          _richardson(be, a, lower, s, w, vk)))
    return cases


def _richardson(be, a, lower, scale, weights, v):
    """Richardson steps from z = 0 on the self-check operands — A (CSR
    with its arena), ``lower`` as both solves, the middle
    ``scale`` — one per weight: the native engine's compiled sweep
    (unrecorded), or the level's loop on any other engine's kernels, the
    oracle."""
    from types import SimpleNamespace

    from .workspace import Workspace

    prec = precision_of_dtype(v.dtype)
    if isinstance(be, NativeBackend):
        plan = SimpleNamespace(backend=be, vec_prec=prec, kind="csr", storage=a)
        m = SimpleNamespace(triangular_form=lambda: (lower, scale, lower),
                            num_applications=0)
        sweep = be.richardson_sweep(plan, m, len(weights), v, Traffic(), 0)
        if sweep is None:
            raise NativeUnavailable("self-check failed: the Richardson sweep "
                                    "declines its operands")
        return sweep(v, weights, Workspace())
    z = np.zeros(v.shape, dtype=v.dtype)
    for step, weight in enumerate(weights):
        if step == 0:
            r = v
        else:
            r = be.spmv_axpy(a.values, a.indices, a.indptr, z, v, record=False,
                             scratch=a.scratch())
        y = be.trsv(lower, r, record=False)
        if scale is not None:
            y = be.diag_scale(scale, y, record=False)
        z = be.weighted_update(z, be.trsv(lower, y, record=False), float(weight), prec,
                               record=False)
    return z


def _cast_factor(factor, dtype):
    """A copy of the self-check factor with values in ``dtype`` (the inverse
    diagonal rounded to it, as ``TriangularFactor.astype`` does)."""
    from types import SimpleNamespace

    return SimpleNamespace(**{**vars(factor), "off_vals": factor.off_vals.astype(dtype),
                              "inv_diag": factor.inv_diag.astype(dtype).astype(_F64),
                              "precision": precision_of_dtype(dtype),
                              "_fast_vals": {}, "_fast_plan": None})
