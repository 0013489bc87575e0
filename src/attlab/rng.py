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


# Bytes of per-replicate working data held at once: the resampled designs of
# a chunk of bootstrap refits, or the development designs of a range of lab
# worlds (the lab's ``max_size`` for ``parallel.map_ranges``, the one place
# that cuts replicates into ranges). With the refits' workspace reused
# by every chunk, a 2000-replicate full bootstrap of a default world (9
# replicates a chunk here) against 256 KiB, 1 MiB and 2 MiB, 10 alternating
# pairs each on 2 cores: 256 KiB was 15% slower (faster in 0 of 10), 1 MiB
# 6% faster (8 of 10) with 3.5 MB more peak memory, 2 MiB even (5 of 10).
CHUNK_BYTES = 1 << 19


# ``(seed, states)``: the initial bit-generator state of ``substream(seed, r)``
# by replicate r, about 0.5 KB each. One ``estimate`` draws the same
# streams three times (its bootstrap and two calibration checks), and
# restoring a kept state into a reused bit generator takes about 3 us
# against 24 us to build the stream (2-core Xeon). A seed's dict only gains
# states, and another seed gets a new one, so a pass that holds its states
# keeps them.
_kept: tuple[int, dict[int, dict]] = (-1, {})


def _initial_states(seed: int, replicates: range) -> dict[int, dict]:
    """The initial states of ``substream(seed, r)`` by ``r``, at least for each ``r`` in ``replicates``.

    Kept for the last seed asked for; only the states it lacks are built.
    """
    global _kept
    seed = int(seed)
    if _kept[0] != seed:
        _kept = (seed, {})
    states = _kept[1]
    states.update({r: substream(seed, r).bit_generator.state for r in replicates if r not in states})
    return states


def resample_chunks(seed: int, replicates: range, sizes: tuple[int, ...], row_bytes: int):
    """Bootstrap index draws for the replicates in ``replicates``, a range ``[lo, hi)``, a chunk at a time.

    Replicate ``r`` draws ``integers(0, size, size)`` for each of ``sizes``,
    in order, from ``substream(seed, r)``, restored into one bit generator of
    this call's own, so any split of a range draws what the whole range
    does. Each chunk is a tuple with one (replicates, size) array per size;
    a chunk holds as many replicates as fit ``CHUNK_BYTES`` at ``row_bytes``
    each, and at least one.
    """
    states = _initial_states(seed, replicates)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    per_chunk = max(1, CHUNK_BYTES // max(1, row_bytes))
    for start in range(0, len(replicates), per_chunk):
        chunk = replicates[start : start + per_chunk]
        draws = tuple(np.empty((len(chunk), size), dtype=np.int64) for size in sizes)
        for row, r in enumerate(chunk):
            bit_generator.state = states[r]
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
        for (idx,) in resample_chunks(seed, range(n_replicates), (len(p),), p.nbytes)
    ]
    return tuple(np.concatenate(means) for means in zip(*chunks))
