"""Deterministic parallel replicate execution.

Each replicate draws from its own counter-based substream keyed by the
replicate index, so the vector of per-replicate values is independent of how
work is scheduled.  Aggregation always happens on that index-ordered vector
via numpy's fixed-shape pairwise summation, which makes every estimate
byte-identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .numerics import RngStream

__all__ = ["thread_count", "replicate_map"]


def thread_count(requested: int | None = None) -> int:
    """Worker count: the explicit request, else the cores this process may
    run on."""
    if requested is not None:
        if requested < 1:
            raise ValueError(f"thread count must be >= 1, got {requested}")
        return requested
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def replicate_map(
    fn: Callable[[RngStream, int], float | np.ndarray],
    replicates: int,
    master_seed: int,
    threads: int | None = None,
    width: int = 1,
) -> np.ndarray:
    """Evaluate ``fn(stream, index)`` for index 0..replicates-1.

    Returns the values ordered by replicate index, shape ``(replicates,)``
    for width 1 and ``(replicates, width)`` otherwise.  The output depends
    only on (fn, replicates, master_seed), never on the thread count.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    workers = thread_count(threads)
    out = np.empty((replicates, width)) if width > 1 else np.empty(replicates)

    def run_range(lo: int, hi: int) -> None:
        for index in range(lo, hi):
            out[index] = fn(RngStream(master_seed, index), index)

    if workers == 1 or replicates == 1:
        run_range(0, replicates)
    else:
        chunk = max(1, -(-replicates // (workers * 4)))
        bounds = [(lo, min(lo + chunk, replicates)) for lo in range(0, replicates, chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_range, lo, hi) for lo, hi in bounds]
            for future in futures:
                future.result()
    return out
