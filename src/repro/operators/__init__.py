"""Operator abstraction layer: the solver stack's view of ``A``.

The nested solvers only ever *apply* the coefficient matrix, so they target
the :class:`LinearOperator` contract instead of assembled storage:

* :class:`AssembledOperator` — wraps a CSR matrix, whose CSR product every
  apply runs;
* :class:`StencilOperator` — matrix-free constant-coefficient stencil applies
  over the regular grids :mod:`repro.matgen` builds (see
  :mod:`repro.matgen.operators` for the ready-made problem generators);
* :class:`ShiftedOperator` / :class:`ScaledOperator` — composites for
  diagonal shifts and diagonal-scaled systems.

:func:`as_operator` coerces a raw :class:`~repro.sparse.CSRMatrix` (which
itself satisfies the contract structurally) into the wrapped form.
"""

from .base import LinearOperator, as_operator
from .assembled import AssembledOperator
from .composite import ScaledOperator, ShiftedOperator
from .stencil import StencilOperator

__all__ = [
    "LinearOperator",
    "AssembledOperator",
    "StencilOperator",
    "ShiftedOperator",
    "ScaledOperator",
    "as_operator",
]
