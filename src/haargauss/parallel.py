"""Deterministic parallel replicate execution.

Each replicate draws from its own counter-based substream keyed by the
replicate index, so the vector of per-replicate values is independent of how
work is scheduled.  Aggregation always happens on that index-ordered vector
via numpy's fixed-shape pairwise summation, which makes every estimate
byte-identical for any worker count.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .numerics import RngStream

__all__ = ["thread_count", "replicate_map"]

THREADS_ENV_VAR = "HAARGAUSS_THREADS"

# glibc mallopt numbers.  Blocks from MMAP_THRESHOLD_BYTES up get a mapping
# of their own, returned when freed; an arena trims free top past twice that.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 4 << 20


@functools.cache
def _pin_mmap_threshold() -> None:
    """Fix glibc's mmap and trim thresholds; a no-op without ``mallopt``.

    glibc slides the mmap threshold up to each large block freed, so later
    ones come from the asking thread's arena, which may keep them resident;
    with one arena per worker, peak memory then varied by one 12.5 MB block
    between runs of the same 62500 x 25 coupling.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_BYTES)


def thread_count(requested: int | None = None) -> int:
    """Worker count: explicit request, else HAARGAUSS_THREADS, else the
    cores this process may run on."""
    if requested is not None:
        if requested < 1:
            raise ValueError(f"thread count must be >= 1, got {requested}")
        return requested
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        value = int(env)
        if value < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {env}")
        return value
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
        _pin_mmap_threshold()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_range, lo, hi) for lo, hi in bounds]
            for future in futures:
                future.result()
    return out
