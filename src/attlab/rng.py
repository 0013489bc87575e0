"""Deterministic RNG substreams.

Every stochastic component draws replicate ``r`` from a stream derived from
``(seed, r)``, so outputs are identical regardless of execution order or
parallelism degree; a range's task carries its streams' rows of ``initial_states``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) tuple."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key)))


def derive_seed(seed: int, *key: int) -> int:
    """A 63-bit integer seed derived from (seed, key...), for nested configs."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


# Bytes of per-replicate working data held at once (``items_per_chunk``): the
# resampled designs of a chunk of bootstrap refits, or the development designs
# of a range of lab worlds. With the refits' workspace reused by every chunk,
# a 2000-replicate full bootstrap of a default world (9 replicates a chunk
# here) against 256 KiB, 1 MiB and 2 MiB, 10 alternating pairs each on 2
# cores: 256 KiB was 15% slower (faster in 0 of 10), 1 MiB 6% faster (8 of
# 10) with 3.5 MB more peak memory, 2 MiB even (5 of 10).
CHUNK_BYTES = 1 << 19


def items_per_chunk(item_bytes: int) -> int:
    """How many items of ``item_bytes`` each fit ``CHUNK_BYTES``, and at least one."""
    return max(1, CHUNK_BYTES // max(1, item_bytes))


# One ``estimate``'s bootstrap and two calibration checks draw the same
# streams; a state takes 13-24 us to build and about 2 us to restore (2-core
# Xeon). The second entry keeps a bootstrap's array of more than 2000 rows
# while the checks ask for their 2000, which are still built again: an entry
# is keyed by ``(seed, n)``, and taking the checks' rows from the bootstrap's
# prefix would need a cache that fills in part.
@lru_cache(maxsize=2)
def initial_states(seed: int, n: int) -> np.ndarray:
    """The initial PCG64 states of ``substream(seed, r)`` for ``r < n``, as a read-only (n, 4) uint64 array.

    Row ``r`` holds the high and low 64-bit words of the state, then those
    of the increment.
    """
    pcg = [substream(seed, r).bit_generator.state["state"] for r in range(n)]
    states = np.array([divmod(s["state"], 2**64) + divmod(s["inc"], 2**64) for s in pcg], np.uint64).reshape(n, 4)
    states.flags.writeable = False
    return states


def resample_chunks(states: np.ndarray, sizes: tuple[int, ...], row_bytes: int):
    """Bootstrap index draws for the replicates whose ``initial_states`` rows are ``states``, a chunk at a time.

    A replicate draws ``integers(0, size, size)`` for each of ``sizes``, in
    order, from its stream, restored from its row into one bit generator of
    this call's own, so any split of the rows draws what all of them do.
    Each chunk is a tuple with one (replicates, size) array per size; each
    but the last holds ``items_per_chunk(row_bytes)`` replicates.
    """
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    per_chunk = items_per_chunk(row_bytes)
    for start in range(0, len(states), per_chunk):
        chunk = states[start : start + per_chunk].tolist()
        draws = tuple(np.empty((len(chunk), size), dtype=np.int64) for size in sizes)
        for row, (state_hi, state_lo, inc_hi, inc_lo) in enumerate(chunk):
            bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}}
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
        for (idx,) in resample_chunks(initial_states(seed, n_replicates), (len(p),), p.nbytes)
    ]
    return tuple(np.concatenate(means) for means in zip(*chunks))
