"""Span tracer for the end-to-end benchmark.

Layers are timed from outside the program: :class:`Tracer` wraps public
entry points at class level, records one span per call, and restores the
original attributes on exit.  Nothing under ``src/`` knows it is traced.

Span names follow the nesting of an F3R solve::

    core (F3RSolver.solve / solve_batch)
     └ F1 (OuterFGMRES.solve / solve_batch)
        └ F2 (FGMRESLevel.apply*, parent F1)
           └ F3 (FGMRESLevel.apply*, parent F2)
              └ R4 (RichardsonLevel.apply*)
                 └ M (Preconditioner.apply*)

plus kernel spans (``plan``, ``orth``, ``combine``, ``wupdate``) under
whichever level called them.  With ``full=False`` only the ``core`` spans
are recorded, which is what the untraced run uses to time solver calls and
match them to requests.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np

#: level span names; a full trace attributes traffic to each
LEVELS = ("core", "F1", "F2", "F3", "R4", "M")
#: kernel span groups: calls nested inside the same group are not re-counted
KERNELS = ("plan", "orth", "combine", "wupdate")

_ABSENT = object()


def rhs_key(column) -> bytes:
    """Content key of one right-hand side, used to match solves to requests."""
    col = np.ascontiguousarray(column, dtype=np.float64)
    return hashlib.blake2b(col.tobytes(), digest_size=12).digest()


def _columns(args, kwargs) -> int:
    """Number of right-hand sides in a level or plan call's vector argument."""
    x = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
    shape = getattr(x, "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


class Tracer:
    """Records spans around the solver stack's public entry points.

    Each span is a list ``[name, start, end, parent, thread, requests,
    columns, traffic]``; ``parent`` is the parent span itself (or
    ``None``), ``requests`` the ids of the requests the enclosing solve
    serves, and ``traffic`` the bytes by precision recorded inside a level
    span of a full trace: the difference of the thread's traffic counter
    (:func:`repro.perf.global_counter`) between entry and exit.
    """

    def __init__(self, full: bool = True) -> None:
        self.full = full
        self.spans: list[list] = []
        self._tls = threading.local()
        self._patches: list[tuple] = []
        self._requests: dict[bytes, int] = {}

    # ------------------------------------------------------------------ #
    def register(self, column, request_id: int) -> None:
        """Announce that a solve of ``column`` serves request ``request_id``."""
        self._requests[rhs_key(column)] = request_id

    def _requests_of(self, args, kwargs) -> tuple:
        b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
        cols = [b] if b.ndim == 1 else [b[:, j] for j in range(b.shape[1])]
        return tuple(self._requests.get(rhs_key(c), -1) for c in cols)

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # ------------------------------------------------------------------ #
    def _wrap(self, owner, attr: str, name) -> None:
        """Wrap ``owner.attr``; ``name`` is the span name, or a function of
        the parent span that returns it."""
        from repro.perf import global_counter

        original = owner.__dict__.get(attr, _ABSENT)
        target = getattr(owner, attr)
        namer = name if callable(name) else None
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            label = namer(parent) if namer is not None else name
            if label == "core" and parent is None:
                requests = tracer._requests_of(args, kwargs)
            else:
                requests = parent[5] if parent is not None else ()
            level = label in LEVELS
            columns = _columns(args, kwargs) if level or label == "plan" else 1
            span = [label, 0.0, 0.0, parent, threading.get_ident(), requests,
                    columns, None]
            counter = before = None
            if level and tracer.full:
                counter = global_counter()
                before = (dict(counter.bytes_by_precision), counter.index_bytes)
            stack.append(span)
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return target(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if counter is not None:
                    span[7] = _traffic_since(counter, *before)

        traced.__wrapped__ = target
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        import repro.core.f3r as f3r_module
        from repro import F3RSolver, SolvePlan, active_backend
        from repro.precond.base import Preconditioner
        from repro.solvers import FGMRESLevel, OuterFGMRES, RichardsonLevel

        def fgmres_level(parent):
            # F2 under F1, F3 under F2: the depth comes from the caller
            depth = int(parent[0][1]) + 1 if parent and parent[0][0] == "F" else 0
            return f"F{depth}"

        for attr in ("solve", "solve_batch"):
            self._wrap(F3RSolver, attr, "core")
        if not self.full:
            return self
        # set-up spans: serve-open builds its solvers inside the dispatcher
        self._wrap(F3RSolver, "__init__", "ctor")
        self._wrap(f3r_module, "make_primary_preconditioner", "precond")
        for attr in ("solve", "solve_batch"):
            self._wrap(OuterFGMRES, attr, "F1")
        for attr in ("apply", "apply_batch"):
            self._wrap(FGMRESLevel, attr, fgmres_level)
            self._wrap(RichardsonLevel, attr, "R4")
            self._wrap(Preconditioner, attr, "M")
        for attr in ("apply", "apply_batch", "residual", "residual_batch"):
            self._wrap(SolvePlan, attr, "plan")
        backend = type(active_backend())
        for attr, label in (("orthonormalize", "orth"), ("orthogonalize", "orth"),
                            ("combine", "combine"),
                            ("weighted_update", "wupdate")):
            self._wrap(backend, attr, label)
        return self

    def remove(self) -> None:
        """Restore every wrapped attribute, innermost patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()

    # ------------------------------------------------------------------ #
    def roots(self, since: float = float("-inf")) -> list[list]:
        """Top-level ``core`` spans that started at or after ``since``."""
        return [s for s in self.spans
                if s[3] is None and s[0] == "core" and s[1] >= since]

    def export(self) -> list[list]:
        """Spans as JSON-ready rows: name, start, end, parent index, thread,
        requests, columns, bytes by precision (level spans of a full trace)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = []
        for s in self.spans:
            rows.append([s[0], s[1], s[2],
                         index[id(s[3])] if s[3] is not None else None,
                         s[4], list(s[5]), s[6], s[7]])
        return rows


def _traffic_since(counter, by_precision: dict, index_bytes: int) -> dict:
    """Bytes ``counter`` recorded since it held ``by_precision`` and
    ``index_bytes``, by precision label (plus ``"index"``)."""
    out = {p.label: b - by_precision.get(p, 0)
           for p, b in counter.bytes_by_precision.items()}
    out["index"] = counter.index_bytes - index_bytes
    return out


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time per span: its duration minus the time its children cover.

    Children run on their parent's thread, one after another, so the time
    they cover is the sum of their durations.
    """
    own = {id(s): s[2] - s[1] for s in spans}
    for s in spans:
        if s[3] is not None and id(s[3]) in own:
            own[id(s[3])] -= s[2] - s[1]
    return own


def layer_totals(spans: list[list], since: float) -> dict:
    """Sum the spans of every ``core`` tree that started at or after ``since``.

    Returns, per level, self seconds, calls (one per right-hand side the
    call carried), self bytes (by precision; a level's own kernels included,
    child levels excluded) and the level's time outside its child levels;
    per kernel group, the time and calls of its outermost spans; the total
    traffic of the roots; the span count; and the smallest self time (a
    negative one means a child outlived its parent).
    """
    own = self_times(spans)
    root_of: dict[int, list] = {}
    levels = {name: {"self_s": 0.0, "calls": 0, "excl_s": 0.0, "bytes": {}}
              for name in LEVELS}
    kernels = {name: {"s": 0.0, "calls": 0} for name in KERNELS}
    traffic: dict[str, int] = {}
    count = 0
    min_self = 0.0
    for s in spans:
        root = s if s[3] is None else root_of.get(id(s[3]))
        if root is None:
            continue
        root_of[id(s)] = root
        if root[0] != "core" or root[1] < since:
            continue
        count += 1
        name, dur, parent = s[0], s[2] - s[1], s[3]
        min_self = min(min_self, own[id(s)])
        if name in levels:
            lv = levels[name]
            lv["self_s"] += own[id(s)]
            lv["calls"] += s[6]
            lv["excl_s"] += dur
            _add(lv["bytes"], s[7] or {}, 1)
            if parent is not None and parent[0] in levels:
                up = levels[parent[0]]
                up["excl_s"] -= dur
                _add(up["bytes"], s[7] or {}, -1)
            else:
                _add(traffic, s[7] or {}, 1)
        elif name in kernels and (parent is None or parent[0] != name):
            kernels[name]["s"] += dur
            kernels[name]["calls"] += s[6]
    return {"levels": levels, "kernels": kernels, "traffic": traffic,
            "spans": count, "min_self_s": min_self}


def _add(into: dict, delta: dict, sign: int) -> None:
    for key, value in delta.items():
        into[key] = into.get(key, 0) + sign * value
