"""Pluggable compute-backend layer for the hot kernels.

Every hot path of the solver stack (SpMV, triangular solves, FGMRES
orthogonalization, ILU(0) construction) dispatches through the *active*
:class:`~repro.backends.base.KernelBackend`:

* ``"reference"`` — the original emulation-faithful NumPy kernels; the
  correctness oracle.
* ``"fast"`` — fully vectorized kernels with workspace reuse and batched
  counter recording.
* ``"native"`` — ``fast`` with the triangular solve and the fp16 CSR
  products compiled from C (:mod:`repro.backends.native`), bit-identical to
  ``reference``; **the default** wherever ``$CC`` builds it and its
  load-time self-check passes.  Otherwise it is not registered, one
  ``RuntimeWarning`` says why, and ``fast`` is the default.

Selection, in precedence order:

1. ``with use_backend("reference"): ...`` — scoped override.
2. ``set_backend("fast")`` — override for the calling thread.  Selection is
   thread-local: worker threads start from the env/default selection, so set
   the backend inside each worker (or via ``REPRO_BACKEND``) when
   parallelizing solves.
3. The ``REPRO_BACKEND`` environment variable at import time.
4. The built-in default: ``"native"`` when available, else ``"fast"``.

Whether ``native`` is available is decided once per process, lazily: on the
first kernel dispatch through the default, the first
:func:`available_backends` call or the first request for ``"native"`` —
never at import.  Backend implementations are imported lazily too, so this
module stays cheap to import and free of circular imports with
:mod:`repro.sparse`.  Third-party backends (e.g. a CuPy/GPU engine) can be
added at runtime with :func:`register_backend`.
"""

from __future__ import annotations

import importlib
import os
import threading
from contextlib import contextmanager

from .base import KernelBackend
from .workspace import Workspace

__all__ = [
    "KernelBackend",
    "Workspace",
    "DEFAULT_BACKEND",
    "active_backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]

#: name -> instantiated backend (filled lazily)
_INSTANCES: dict[str, KernelBackend] = {}

#: name -> "module:ClassName" spec or callable factory
_FACTORIES: dict[str, object] = {
    "reference": "repro.backends.reference:ReferenceBackend",
    "fast": "repro.backends.fast:FastBackend",
}

#: the compiled engine's factory: registered (as "native") by _probe_native
#: only where it builds and passes its self-check
_NATIVE_FACTORY = "repro.backends.native:NativeBackend"

# empty/whitespace REPRO_BACKEND means "unset": fall back to the default
_ENV_BACKEND = os.environ.get("REPRO_BACKEND", "").strip().lower()
if _ENV_BACKEND and _ENV_BACKEND not in (*_FACTORIES, "native"):
    # fail fast at import instead of deep inside the first kernel call;
    # third-party backends registered at runtime cannot be the env default —
    # select those with set_backend()/use_backend() after registering.
    raise ValueError(
        f"REPRO_BACKEND={_ENV_BACKEND!r} is not a registered kernel backend; "
        f"choose from {', '.join(sorted((*_FACTORIES, 'native')))}")

#: the resolved default engine's name (None until first needed)
_DEFAULT: str | None = None
_PROBE_LOCK = threading.Lock()
_PROBED = False


def _probe_native() -> None:
    """Register ``native`` if it builds and passes its self-check (decided
    once per process; a failure warns once, inside
    :func:`repro.backends.native.library`)."""
    global _PROBED
    if _PROBED:
        return
    with _PROBE_LOCK:
        if not _PROBED:
            from . import native

            if native.library() is not None:
                _FACTORIES.setdefault("native", _NATIVE_FACTORY)
            _PROBED = True


def _default_name() -> str:
    """``REPRO_BACKEND`` when it names ``fast`` or ``reference``, else
    ``native`` when available, else ``fast``."""
    global _DEFAULT
    if _DEFAULT is None:
        if _ENV_BACKEND in ("fast", "reference"):
            _DEFAULT = _ENV_BACKEND
        else:
            _probe_native()
            _DEFAULT = "native" if "native" in _FACTORIES else "fast"
    return _DEFAULT


def __getattr__(name: str):
    # DEFAULT_BACKEND resolves on first access: it may need the native probe
    if name == "DEFAULT_BACKEND":
        return _default_name()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _ActiveState(threading.local):
    def __init__(self) -> None:
        self.name: str | None = None


_ACTIVE = _ActiveState()

#: when set (by :mod:`repro.faults`), every ``get_backend`` result passes
#: through this callable — the only hot-path cost when no fault session is
#: active is the ``is None`` check below.
_WRAPPER = None


def _set_backend_wrapper(wrapper) -> None:
    """Install/remove the backend proxy hook (``None`` removes it).

    Internal: used by :mod:`repro.faults` to interpose deterministic fault
    injection between the solvers and the kernel engines without the kernels
    knowing about it.
    """
    global _WRAPPER
    _WRAPPER = wrapper


def register_backend(name: str, factory) -> None:
    """Register a backend under ``name``.

    ``factory`` is either a zero-argument callable returning a
    :class:`KernelBackend` or a ``"module:ClassName"`` import spec.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("backend name must be non-empty")
    _FACTORIES[key] = factory
    _INSTANCES.pop(key, None)


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends (``native`` only where it builds)."""
    _probe_native()
    return tuple(sorted(_FACTORIES))


def get_backend(name: str | None = None) -> KernelBackend:
    """The backend registered under ``name`` (default: the active backend)."""
    if name is None:
        name = _ACTIVE.name or _DEFAULT or _default_name()
    key = name.strip().lower()
    instance = _INSTANCES.get(key)
    if instance is None:
        if key == "native":
            _probe_native()
        factory = _FACTORIES.get(key)
        if factory is None:
            raise ValueError(
                f"unknown kernel backend {name!r}; available: {', '.join(available_backends())}")
        if isinstance(factory, str):
            module_name, _, class_name = factory.partition(":")
            factory = getattr(importlib.import_module(module_name), class_name)
        instance = factory()
        _INSTANCES[key] = instance
    if _WRAPPER is not None:
        return _WRAPPER(instance)
    return instance


def active_backend() -> KernelBackend:
    """The backend hot kernels currently dispatch to."""
    return get_backend()


def set_backend(name: str) -> KernelBackend:
    """Select the active backend for this thread; returns the instance."""
    key = name.strip().lower()
    backend = get_backend(key)
    # store the registry key, not backend.name: a third-party class that
    # forgets to override `name` must not silently activate a different engine
    _ACTIVE.name = key
    return backend


@contextmanager
def use_backend(name: str):
    """Scoped backend override (restores the previous selection on exit)."""
    previous = _ACTIVE.name
    backend = set_backend(name)
    try:
        yield backend
    finally:
        _ACTIVE.name = previous
