"""Deterministic replicate execution.

Each replicate draws from its own counter-based substream keyed by the
replicate index, and the replicates run in index order on one worker, so the
vector of per-replicate values depends only on ``fn`` and ``batch``, the
replicate count and the master seed.  Aggregation always happens on that
index-ordered vector via numpy's fixed-shape pairwise summation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .numerics import RngStream

__all__ = ["thread_count", "replicate_map"]

BLOCK_BYTES = 1 << 16  # the most bytes of fn outputs per ``batch`` call: a cost, not a result


def thread_count(requested: int | None = None) -> int:
    """The worker count replicates run on, which is always 1.

    A requested count must be >= 1 (else ``ValueError``) and is otherwise
    ignored.  This function, and every ``threads`` input that reaches it,
    stays only because the benchmark in ``perfbench/`` still calls it; delete
    them with the benchmark's next revision."""
    if requested is not None and requested < 1:
        raise ValueError(f"thread count must be >= 1, got {requested}")
    return 1


def replicate_map(
    fn: Callable[[RngStream, int], float | np.ndarray],
    replicates: int,
    master_seed: int,
    threads: int | None = None,
    batch: Callable[[np.ndarray], np.ndarray] = np.asarray,
) -> np.ndarray:
    """Evaluate ``fn(stream, index)`` for index 0..replicates-1, in order.

    Returns the values stacked by replicate index: shape ``(replicates,)``
    for a scalar ``fn`` and ``(replicates, k)`` for one returning k values.
    The outputs are stacked in blocks of at most ``BLOCK_BYTES`` (at least one
    output) and ``batch`` maps each block to one value per member, so a
    ``batch`` that treats members independently makes the result independent
    of the block size.  One stream is re-keyed to each index in turn
    (:meth:`RngStream.rekey`), drawing exactly what fresh streams would.
    ``threads`` is checked and otherwise ignored.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    thread_count(threads)
    stream = RngStream(master_seed)
    values, block, size = [], [], 0
    for index in range(replicates):
        block.append(fn(stream.rekey(index), index))
        size = size or max(1, BLOCK_BYTES // max(1, np.asarray(block[0]).nbytes))  # outputs per block
        if len(block) == size or index == replicates - 1:
            stack, block = np.array(block), []  # the draws are freed before batch runs
            values.append(batch(stack))
    return np.concatenate(values, dtype=float)
