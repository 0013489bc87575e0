"""Deterministic RNG substreams.

Every stochastic component draws replicate ``r`` from a stream derived from
``(seed, r)``, so outputs are identical regardless of execution order or
parallelism degree.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) tuple."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key)))


def derive_seed(seed: int, *key: int) -> int:
    """A 63-bit integer seed derived from (seed, key...), for nested configs."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


# Bytes of per-replicate working data, such as the resampled designs of a
# chunk of bootstrap refits, held at once. With the refits' workspace reused
# by every chunk, a 2000-replicate full bootstrap of a default world (9
# replicates a chunk here) against 256 KiB, 1 MiB and 2 MiB, 10 alternating
# pairs each on 2 cores: 256 KiB was 15% slower (faster in 0 of 10), 1 MiB
# 6% faster (8 of 10) with 3.5 MB more peak memory, 2 MiB even (5 of 10).
CHUNK_BYTES = 1 << 19


def resample_chunks(seed: int, n_replicates: int, sizes: tuple[int, ...], row_bytes: int):
    """Bootstrap index draws for replicates ``0 .. n_replicates - 1``, a chunk at a time.

    Replicate ``r`` draws ``integers(0, size, size)`` for each of ``sizes``,
    in order, from ``substream(seed, r)``. Each chunk is a tuple with one
    (replicates, size) array per size; a chunk holds as many replicates as
    fit ``CHUNK_BYTES`` at ``row_bytes`` each, and at least one.
    """
    per_chunk = max(1, CHUNK_BYTES // max(1, row_bytes))
    for start in range(0, n_replicates, per_chunk):
        replicates = range(start, min(start + per_chunk, n_replicates))
        draws = tuple(np.empty((len(replicates), size), dtype=np.int64) for size in sizes)
        for row, r in enumerate(replicates):
            rng = substream(seed, r)
            for out, size in zip(draws, sizes):
                out[row] = rng.integers(0, size, size)
        yield draws


def resampled_means(seed: int, n_replicates: int, y: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The means of ``y`` and of ``p`` over each replicate's resample of their rows.

    Replicate ``r`` draws its ``len(p)`` row indices from ``substream(seed, r)``,
    as ``resample_chunks`` does, in chunks of ``p.nbytes`` per replicate.
    """
    chunks = [
        (np.mean(y[idx], axis=1), np.mean(p[idx], axis=1))
        for (idx,) in resample_chunks(seed, n_replicates, (len(p),), p.nbytes)
    ]
    return tuple(np.concatenate(means) for means in zip(*chunks))
