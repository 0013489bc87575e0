"""Independent work items mapped, in order, over worker processes.

Results come back in item order, so a caller whose items draw from their
own RNG streams gets the same output for any worker count. Workers come
from the platform's default start method. Where that is ``fork`` (Linux),
they inherit the parent's memory, such as the stream states that ``rng``
keeps; a spawned worker would first import numpy and attlab, about 0.37 s
on a 2-core Xeon, against about 1 s for a whole 2000-replicate bootstrap.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(requested: int, n_items: int) -> int:
    """Workers to start for ``n_items`` items: ``min(requested, n_items, usable_cpus())``, and at least 1."""
    return max(1, min(requested, n_items, usable_cpus()))


def ordered_map(fn: Callable, items: Sequence, workers: int) -> Iterator:
    """``map(fn, items)``, on ``worker_count(workers, len(items))`` processes.

    With one worker no process is started and ``fn`` runs here. Otherwise
    ``fn`` and each item are pickled; each worker takes about 8 batches of
    items, and the pool is shut down once the results are drained.
    """
    workers = worker_count(workers, len(items))
    if workers == 1:
        yield from map(fn, items)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items, chunksize=max(1, len(items) // (workers * 8)))
