"""Block-Jacobi ILU(0) / IC(0) preconditioner.

The paper's CPU experiments use block-Jacobi ILU(0) (IC(0) when the matrix is
symmetric) with one block per hardware thread (112 blocks on the 2 × 56-core
node) so that each block factorization and triangular solve is independent and
therefore thread-parallel.  Couplings between blocks are simply discarded.

The αILU stabilization — scaling the diagonal of ``A`` by a problem-dependent
factor during the factorization only — is applied per block.
"""

from __future__ import annotations

import functools

import numpy as np

from ..backends.base import columns
from ..perf.counters import Traffic
from ..perf.counters import record as record_traffic
from ..precision import Precision, as_precision
from ..sparse import BlockPartition, CSRMatrix, fuse_block_diagonal, partition_rows
from .base import Preconditioner
from .ilu0 import IC0Preconditioner, ILU0Preconditioner, triangular_apply

__all__ = ["BlockJacobiILU0", "BlockJacobiIC0"]


@functools.lru_cache(maxsize=256)
def _parity_traffic(nblocks: int, k: int) -> Traffic:
    """Kernel-count parity of the fused solves with the per-block loop: the
    fused solves record one trsv per column per stage, the loop one per
    block; byte/flop totals already match (the fused factor is the blocks'
    union)."""
    return Traffic.of(calls=[("trsv", 2 * (nblocks - 1) * k)])


class _BlockJacobiBase(Preconditioner):
    """Shared machinery of the ILU(0)- and IC(0)-based block-Jacobi variants."""

    _block_factory: type[Preconditioner]

    def __init__(self, matrix: CSRMatrix, nblocks: int | None = None,
                 alpha: float = 1.0, precision: Precision | str = Precision.FP64,
                 partition: BlockPartition | None = None) -> None:
        super().__init__(precision)
        if matrix.nrows != matrix.ncols:
            raise ValueError("block-Jacobi requires a square matrix")
        self._n = matrix.nrows
        self.alpha = float(alpha)
        if partition is None:
            partition = partition_rows(matrix.nrows, nblocks=nblocks or 1)
        self.partition = partition
        self._blocks: list[Preconditioner] = []
        self._fused = None
        for start, stop in partition.blocks():
            block = matrix.extract_block(start, stop)
            self._blocks.append(
                self._block_factory(block, alpha=alpha, precision=self.precision)
            )

    @classmethod
    def _from_blocks(cls, blocks, partition, alpha, precision, n):
        obj = object.__new__(cls)
        Preconditioner.__init__(obj, precision)
        obj._n = n
        obj.alpha = alpha
        obj.partition = partition
        obj._blocks = blocks
        obj._fused = None
        return obj

    # ------------------------------------------------------------------ #
    def _apply(self, r: np.ndarray) -> np.ndarray:
        if self.nblocks == 1:
            # the block does its own traffic accounting; only the outer
            # object counts as "one invocation of the primary M"
            return self._blocks[0]._apply(r).astype(r.dtype, copy=False)
        # Application runs on *fused* block-diagonal factors: the blocks are
        # mutually independent, so their dependency-level schedules merge
        # (level i of every block solves together) and one level sweep serves
        # all blocks and all columns.  This is the emulation analogue of the
        # paper's thread-per-block parallel execution — numerically identical
        # to the per-block loop, exactly.
        z = triangular_apply(*self._fused_parts(), r)
        record_traffic(_parity_traffic(self.nblocks, columns(r)))
        return z

    def triangular_form(self):
        if self.nblocks == 1:
            return self._blocks[0].triangular_form()
        return self._fused_parts()

    def _fused_parts(self):
        """``(lower, scale, upper)``: the fused block-diagonal factors and
        the middle scaling (``None`` for ILU(0)), built lazily on the first
        application (idempotent: a concurrent duplicate build is
        identical)."""
        fused = self._fused
        if fused is None:
            fused = self._fused = self._build_fused()
        return fused

    def astype(self, precision: Precision | str):
        p = as_precision(precision)
        blocks = [block.astype(p) for block in self._blocks]
        return type(self)._from_blocks(blocks, self.partition, self.alpha, p, self._n)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    @property
    def nblocks(self) -> int:
        return self.partition.nblocks

    def memory_bytes(self) -> int:
        return sum(block.memory_bytes() for block in self._blocks)


class BlockJacobiILU0(_BlockJacobiBase):
    """Block-Jacobi with an ILU(0) factorization of each diagonal block."""

    _block_factory = ILU0Preconditioner

    def _build_fused(self):
        return (fuse_block_diagonal([b._lower for b in self._blocks]), None,
                fuse_block_diagonal([b._upper for b in self._blocks]))


class BlockJacobiIC0(_BlockJacobiBase):
    """Block-Jacobi with an IC(0)-style factorization of each diagonal block
    (for symmetric matrices; stores roughly half the values of ILU(0))."""

    _block_factory = IC0Preconditioner

    def _build_fused(self):
        return (fuse_block_diagonal([b._lower for b in self._blocks]),
                np.concatenate([b._inv_diag for b in self._blocks]),
                fuse_block_diagonal([b._upper_t for b in self._blocks]))
