"""Deterministic RNG substreams.

Every stochastic component draws replicate ``r`` from a stream derived from
``(seed, r)``, so outputs are identical regardless of execution order or
parallelism degree; a range's task carries its streams' rows of ``initial_states``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import Integer, checked


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


# numpy's SeedSequence, with its pool of four 32-bit words, and PCG64's
# seeding (O'Neill 2014): ``initial_states`` runs both on arrays, one lane a
# stream, and gives the bits that ``substream`` does.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _pcg64_states(seed: int, n: int) -> np.ndarray:
    """The initial PCG64 states of ``substream(seed, r)`` for ``r < n``, as an (n, 4) uint64 array, in one pass."""
    seed = checked(seed, Integer(0), "initial_states seed")
    n = checked(n, Integer(0, 2**32), "initial_states n")  # a spawn key of one 32-bit word
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    # The entropy: the seed's 32-bit words, low first, zero-padded to the
    # pool size, then the spawn key.
    words = [seed >> shift & _MASK32 for shift in range(0, seed.bit_length(), 32)]
    entropy = [np.full(n, word, np.uint32) for word in words + [0] * (_POOL_SIZE - len(words))]
    entropy.append(np.arange(n, dtype=np.uint32))
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # ``generate_state(4, np.uint64)``: eight words, read as four
    # little-endian 64-bit ones.
    hash_const = _INIT_B
    generated = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        generated.append(value ^ value >> 16)
    seeds = np.stack(generated, axis=1).astype("<u4").view("<u8").tolist()

    # PCG64 takes the first two words as the high and low halves of its
    # initial state, the last two as its sequence, and steps twice from a
    # zero state, adding the initial state between the steps.
    rows = []
    for state_hi, state_lo, seq_hi, seq_lo in seeds:
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
        rows.append((state >> 64, state & _MASK64, inc >> 64, inc & _MASK64))
    return np.array(rows, np.uint64).reshape(n, 4)


# One ``estimate``'s bootstrap and two calibration checks draw the same
# streams; 2000 states take about 3 ms to build (2-core Xeon). The second
# entry keeps a bootstrap's array of more than 2000 rows while the checks ask
# for their 2000, which are built again: an entry is keyed by ``(seed, n)``.
@lru_cache(maxsize=2)
def initial_states(seed: int, n: int) -> np.ndarray:
    """The initial PCG64 states of ``substream(seed, r)`` for ``r < n``, as a read-only (n, 4) uint64 array.

    Row ``r`` holds the high and low 64-bit words of the state, then those
    of the increment.
    """
    states = _pcg64_states(seed, n)
    states.flags.writeable = False
    return states


def _restore(bit_generator: np.random.PCG64, row) -> None:
    """Set ``bit_generator`` to the ``initial_states`` row ``row``, with no 32-bit half buffered."""
    state_hi, state_lo, inc_hi, inc_lo = row
    bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                           "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}}


def resample_chunks(states: np.ndarray, sizes: tuple[int, ...], row_bytes: int):
    """Bootstrap index draws for the replicates whose ``initial_states`` rows are ``states``, a chunk at a time.

    A replicate draws ``integers(0, size, size)`` for each of ``sizes``, in
    order, from its stream, restored from its row into one bit generator of
    this call's own, so any split of the rows draws what all of them do.
    Each chunk is a tuple with one (replicates, size) array per size; each
    but the last holds ``items_per_chunk(row_bytes)`` replicates. A size must
    be below 2**32.

    ``integers`` takes a 32-bit word ``u`` for each index, the low half of a
    64-bit draw and then its high half, and returns ``u * size >> 32``
    (Lemire 2019). It may reject the word and draw again only where
    ``u * size`` mod 2**32 is below ``size``; a replicate with such a word
    draws again through ``integers``. Sizes 0 and 1 take no word.
    """
    for size in sizes:
        checked(size, Integer(0, _MASK32), "resample_chunks size")
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    n_raw = (sum(size for size in sizes if size > 1) + 1) // 2
    per_chunk = items_per_chunk(row_bytes)
    for start in range(0, len(states), per_chunk):
        chunk = states[start : start + per_chunk].tolist()
        raw = np.empty((len(chunk), n_raw), "<u8")
        for row, state in enumerate(chunk):
            _restore(bit_generator, state)
            raw[row] = bit_generator.random_raw(n_raw)
        words = raw.view("<u4")
        draws, used = [], 0
        redraw = np.zeros(len(chunk), dtype=bool)
        for size in sizes:
            if size <= 1:
                draws.append(np.zeros((len(chunk), size), dtype=np.int64))
                continue
            scaled = words[:, used : used + size] * np.uint64(size)
            used += size
            redraw |= np.any((scaled & _MASK32) < size, axis=1)
            scaled >>= 32
            draws.append(scaled.view(np.int64))
        for row in np.flatnonzero(redraw).tolist():
            _restore(bit_generator, chunk[row])
            for out, size in zip(draws, sizes):
                out[row] = rng.integers(0, size, size)
        yield tuple(draws)


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
