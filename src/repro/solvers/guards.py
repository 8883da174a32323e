"""Solver guards: breakdown and stagnation detection for the iteration hot loops.

Low-precision iterative solvers fail in characteristic ways that plain
convergence checking never surfaces: an fp16 underflow chain turns a residual
norm into NaN and the solver keeps multiplying garbage; a (near-)singular
ILU(0) pivot makes a preconditioned direction non-finite; restarted cycles
stop making progress while burning their full iteration budget.  The guards
in this module turn those silent failures into *structured events* that the
recovery layer (:mod:`repro.core.recovery`) can act on:

* :class:`SolveBreakdown` — a non-finite quantity appeared in the recurrence
  (``kind="hard"``), or the Krylov basis closed exactly (``kind="happy"``,
  never raised — a happy breakdown means the cycle solved the system).
* :class:`SolveStagnation` — the windowed relative-residual progress over the
  last ``window`` outer cycles fell below ``min_drop`` (the solver is looping
  without converging).

Design constraints, in order:

1. **Zero distortion** — guard checks only inspect *scalars the solvers
   already compute* (residual norms, Hessenberg entries, rotation
   denominators).  When no event fires, the guarded path is bit-identical to
   the unguarded one: no extra kernel calls, no reordered arithmetic.
2. **Kill switch** — ``REPRO_GUARDS=0`` (or :func:`set_guards_enabled`)
   restores today's silent behaviour exactly; every hook collapses to the
   pre-guard code path.
3. **Cheap** — each check is a handful of Python float comparisons per
   *cycle*, not per element; warm-solve overhead stays under a <2% budget
   (warm-solve times are tracked by ``benchmarks/e2e``).

Breakdown classification (``classify_breakdown``) follows the standard
Krylov taxonomy: a *happy* breakdown is an exactly-zero next-basis norm with
finite arithmetic (the Krylov space is invariant — the cycle's answer is
exact); a *hard* breakdown is any non-finite norm or entry (the recurrence
is corrupted and nothing downstream can be trusted).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SolveEvent",
    "SolveBreakdown",
    "SolveStagnation",
    "InvalidInput",
    "StagnationWindow",
    "classify_breakdown",
    "guards_enabled",
    "set_guards_enabled",
    "use_guards",
    "check_finite",
]

_ENABLED = os.environ.get("REPRO_GUARDS", "1").strip().lower() not in (
    "0", "off", "false", "no")


def guards_enabled() -> bool:
    """Whether solver guards raise structured events (``REPRO_GUARDS``)."""
    return _ENABLED


def set_guards_enabled(enabled: bool) -> bool:
    """Enable/disable solver guards (process-wide); returns the old state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


@contextmanager
def use_guards(enabled: bool = True):
    """Scoped guard toggle (parity tests compare both paths)."""
    previous = set_guards_enabled(enabled)
    try:
        yield
    finally:
        set_guards_enabled(previous)


# ---------------------------------------------------------------------- #
# Structured events
# ---------------------------------------------------------------------- #
class SolveEvent(RuntimeError):
    """Base class for structured solver events.

    Attributes
    ----------
    site:
        Dotted label of the check that fired, e.g. ``"fgmres.beta"`` or
        ``"richardson.weight"`` — stable strings the recovery layer and the
        fault-injection tests key on.
    iteration:
        Iteration index within the cycle when the event fired (or ``None``).
    value:
        The offending scalar (NaN/Inf for breakdowns, the windowed progress
        ratio for stagnation).
    iterate:
        The last finite outer iterate known when the event fired (fp64), or
        ``None``.  The recovery ladder restarts from it instead of discarding
        the progress made before the corruption.
    columns:
        For batched cycles: the original column indices whose recurrences are
        affected (``None`` for single-RHS solves or when unattributable).
    """

    def __init__(self, message: str, site: str, iteration: int | None = None,
                 value: float | None = None, iterate: np.ndarray | None = None,
                 columns: list[int] | None = None) -> None:
        super().__init__(message)
        self.site = site
        self.iteration = iteration
        self.value = value
        self.iterate = iterate
        self.columns = columns

    def describe(self) -> dict:
        return {
            "event": type(self).__name__,
            "site": self.site,
            "iteration": self.iteration,
            "value": self.value,
            "columns": self.columns,
            "message": str(self),
        }


class SolveBreakdown(SolveEvent):
    """A non-finite quantity corrupted the Krylov recurrence (``kind="hard"``).

    ``kind="happy"`` instances exist only as classification results — the
    solvers handle a happy breakdown by finalizing early, never by raising.
    """

    def __init__(self, message: str, site: str, kind: str = "hard",
                 **kwargs) -> None:
        super().__init__(message, site, **kwargs)
        self.kind = kind

    def describe(self) -> dict:
        out = super().describe()
        out["kind"] = self.kind
        return out


class SolveStagnation(SolveEvent):
    """Windowed relative-residual progress stalled across outer cycles."""

    def __init__(self, message: str, site: str, window: int = 0,
                 progress: float | None = None, **kwargs) -> None:
        super().__init__(message, site, **kwargs)
        self.window = window
        self.progress = progress

    def describe(self) -> dict:
        out = super().describe()
        out["window"] = self.window
        out["progress"] = self.progress
        return out


class InvalidInput(ValueError):
    """Structured rejection at the solver/dispatcher boundary.

    Raised *before* any setup work is spent when a right-hand side contains
    non-finite entries or a batch is shape-mismatched; carries the boundary
    (``site``) and the offending detail so serving layers can report it.
    """

    def __init__(self, message: str, site: str, detail: dict | None = None) -> None:
        super().__init__(message)
        self.site = site
        self.detail = detail or {}


# ---------------------------------------------------------------------- #
# Classification and checks
# ---------------------------------------------------------------------- #
def classify_breakdown(h_norm: float) -> str | None:
    """Classify a next-basis-vector norm: ``"happy"``, ``"hard"``, or ``None``.

    A zero norm with finite arithmetic means the Krylov space became
    invariant — the cycle's reduced solve is exact (*happy*).  A non-finite
    norm means the recurrence itself is corrupted (*hard*).  Anything else
    is a normal continuing iteration.
    """
    if not np.isfinite(h_norm):
        return "hard"
    if h_norm == 0.0:
        return "happy"
    return None


def check_finite(value: float, site: str, iteration: int | None = None,
                 iterate: np.ndarray | None = None,
                 columns: list[int] | None = None) -> float:
    """Raise :class:`SolveBreakdown` if ``value`` is NaN/Inf (guards on only).

    Returns the value unchanged so call sites can wrap expressions in place.
    The caller is responsible for gating on :func:`guards_enabled` when the
    check itself must vanish from the hot path.
    """
    if not np.isfinite(value):
        raise SolveBreakdown(
            f"non-finite value at {site}"
            + (f" (iteration {iteration})" if iteration is not None else "")
            + f": {value!r}",
            site=site, kind="hard", iteration=iteration, value=float(value),
            iterate=iterate, columns=columns,
        )
    return value


@dataclass
class StagnationWindow:
    """Windowed relative-residual progress monitor for outer cycles.

    Feed it the true relative residual after each outer cycle
    (:meth:`update`); it reports stagnation once the window is full and the
    newest residual failed to drop below ``(1 - min_drop) ×`` the oldest —
    i.e. less than ``min_drop`` relative progress over the last ``window``
    cycles.  ``min_drop`` defaults to 10%: a healthy restarted Krylov solve
    gains far more than that per cycle, while a NaN-free-but-stalled fp16
    solve oscillates within a few ULPs.

    The monitor is armed explicitly (the recovery layer passes one into the
    outer solve); a bare :class:`~repro.solvers.OuterFGMRES` never checks
    stagnation, so direct solver use keeps today's exhaust-the-restarts
    behaviour.
    """

    window: int = 3
    min_drop: float = 0.10
    residuals: list[float] = field(default_factory=list)

    def update(self, relres: float) -> bool:
        """Record one outer-cycle residual; return True when stalled."""
        self.residuals.append(float(relres))
        if len(self.residuals) <= self.window:
            return False
        del self.residuals[:-(self.window + 1)]
        oldest, newest = self.residuals[0], self.residuals[-1]
        if not np.isfinite(newest):
            return True
        return newest >= oldest * (1.0 - self.min_drop)

    @property
    def progress(self) -> float | None:
        """Relative drop achieved over the current window (None until full)."""
        if len(self.residuals) <= self.window:
            return None
        oldest, newest = self.residuals[0], self.residuals[-1]
        if oldest == 0.0:
            return 1.0
        return 1.0 - newest / oldest

    def check(self, relres: float, site: str,
              iterate: np.ndarray | None = None) -> None:
        """:meth:`update`, raising :class:`SolveStagnation` when stalled."""
        if self.update(relres):
            raise SolveStagnation(
                f"relative residual stalled at {relres:.3e} over the last "
                f"{self.window} cycles at {site} "
                f"(progress {self.progress if self.progress is not None else float('nan'):.3%}"
                f" < {self.min_drop:.0%})",
                site=site, window=self.window, progress=self.progress,
                value=float(relres), iterate=iterate,
            )


def validate_rhs(b: np.ndarray, site: str, expected_rows: int | None = None) -> None:
    """Boundary validation: reject non-finite or mis-shaped right-hand sides.

    Cheap relative to any setup work (one vectorized pass over ``b``), and
    always on — a NaN RHS is an input error, not a solver event, so the
    ``REPRO_GUARDS`` kill switch does not disable it.
    """
    if expected_rows is not None and b.shape[0] != expected_rows:
        raise InvalidInput(
            f"rhs has {b.shape[0]} rows; expected {expected_rows} at {site}",
            site=site, detail={"shape": tuple(b.shape), "expected_rows": expected_rows},
        )
    if not np.all(np.isfinite(b)):
        bad = int(np.flatnonzero(~np.isfinite(b).reshape(b.shape[0], -1).all(axis=1))[0])
        raise InvalidInput(
            f"rhs contains non-finite entries (first bad row {bad}) at {site}",
            site=site, detail={"first_bad_row": bad},
        )


__all__.append("validate_rhs")
