"""Replicate loops split into contiguous ranges, mapped in order over worker processes.

``map_ranges`` is the one place that cuts ``range(n)`` into ranges and hands
them to workers. Results come back in range order, so a caller whose
replicates draw from their own RNG streams gets the same output for any
worker count. A task carries all its range needs, its streams' initial
states too (``rng.initial_states``), so every start method gives the same
output. A worker that is not forked first imports numpy and attlab, about
0.37 s on a 2-core Xeon, against about 1 s for a 2000-replicate bootstrap.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator

# Ranges per worker, at least, when more than one worker runs. With one range
# per worker, a core slowed by other work holds up the whole result; with
# several, the other worker takes on its ranges. On a quiet 2-core Xeon, 1, 2,
# 4 and 8 ranges a worker took the same time (2000 replicates of a default
# world's full bootstrap, medians 0.59-0.61 s against 1.04 s in one process,
# 10 alternating rounds).
RANGES_PER_WORKER = 8


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(requested: int, n_items: int) -> int:
    """Workers to start for ``n_items`` items: ``min(requested, n_items, usable_cpus())``, and at least 1."""
    return max(1, min(requested, n_items, usable_cpus()))


def map_ranges(fn: Callable[[range], object], n: int, workers: int, *, max_size: int | None = None) -> Iterator:
    """``fn(r)`` for contiguous ranges ``r`` that together cover ``range(n)``, in range order.

    The ranges' sizes differ by at most one. There are ``ceil(n / max_size)``
    of them, or one when ``max_size`` is None; with more than one worker
    (``worker_count(workers, n)``) there are at least
    ``min(n, workers * RANGES_PER_WORKER)``. With one worker no process is
    started and ``fn`` runs here. Otherwise ``fn`` is pickled with each range,
    one range a pool task, and the pool is shut down once the results are
    drained.
    """
    n_ranges = 1 if max_size is None else -(-n // max_size)
    workers = worker_count(workers, n)
    if workers > 1:
        n_ranges = max(n_ranges, min(n, workers * RANGES_PER_WORKER))
    ranges = [range(n * i // n_ranges, n * (i + 1) // n_ranges) for i in range(n_ranges)]
    if workers == 1:
        yield from map(fn, ranges)
        return
    # Imported only here: a run that starts no pool never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, ranges)
