"""Deterministic random-stream derivation.

All randomness in the package flows through :func:`derive_rng`, which maps a
master seed plus an integer path (for example ``(cell, replication)``) to an
independent generator. Streams depend only on the seed and path, never on
execution order or thread count, so any parallel schedule reproduces the
same results bit for bit. Every seed, path entry and count option of the
package is read by one rule, :func:`_whole`: an int (Python or NumPy) is
taken as it is, a float only when whole (3.0 runs as 3), and anything
else, a fraction, nan, inf, a string or None, raises an ``InputError``.

The bootstrap's index block, :func:`_integers_block`, reproduces the draws
of the streams ``derive_rng(seed, r)`` for every replicate r. NumPy's
``SeedSequence`` hashing and the bounded-integer method of
``Generator.integers`` are computed for all streams at once on uint32 and
uint64 arrays; the hashed words seed NumPy's own ``PCG64`` per stream.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InputError


def _whole(name: str, v) -> int:
    """``v`` as an int, or an InputError unless it is a whole real number."""
    if isinstance(v, (int, np.integer)):
        return int(v)
    if not isinstance(v, (float, np.floating)):
        raise InputError(f"need a whole number {name}, got {v!r}")
    if not float(v).is_integer():
        raise InputError(f"need a whole number {name}, got {v}")
    return int(v)


def _check_path(seed: int, path: tuple[int, ...]) -> list[int]:
    parts = [_whole("seed", seed)] + [_whole("seed path entry", p) for p in path]
    for q in parts:
        if q < 0:
            raise InputError(f"seed path entries must be non-negative, got {q}")
    return parts


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence(_check_path(seed, path)))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, *path) into a single unsigned integer seed."""
    ss = np.random.SeedSequence(_check_path(seed, path))
    return int(ss.generate_state(1, np.uint64)[0])


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_M32 = np.uint64(0xFFFFFFFF)
# Largest n drawn by the 32-bit Lemire method; NumPy switches method above it.
_MAX_N = 2**32 - 1


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def _seed_states(seed: int, streams: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, r]).generate_state(4, uint64)`` for every r.

    ``streams`` is a uint32 vector of stream numbers r < 2**32 (one entropy
    word each); row r of the (streams, 4) uint64 result holds r's words.
    The hashing is computed here on vectors because NumPy's own
    ``SeedSequence`` costs about 20 us a stream, against about 1 us here.
    """
    # The seed's 32-bit words, least significant first; 0 is one word.
    words = [(seed >> s) & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(streams.shape, w, dtype=np.uint32) for w in words] + [streams]

    # The hash constant advances per call, the same for every stream.
    hash_const = _INIT_A

    def hashmix(v):
        nonlocal hash_const
        v = v ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & 0xFFFFFFFF
        return _xorshift(v * np.uint32(hash_const))

    def mix(x, y):
        return _xorshift(np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y)

    zero = np.zeros_like(streams)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        v = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & 0xFFFFFFFF
        out.append(_xorshift(v * np.uint32(hash_const)))
    # Pairs of 32-bit words, little-endian, make the uint64 words.
    return np.stack(out, axis=-1, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _Words(ISeedSequence):
    """Seed sequence of precomputed words. ``PCG64`` reads the returned buffer
    as its seed, so it must hold exactly the requested C-contiguous uint64 words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        assert n_words == len(self.words) and np.dtype(dtype) == np.uint64
        return self.words


def _pcg_outputs(states: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` outputs of NumPy's ``PCG64``, (streams, count).

    Row r of the (streams, 4) words seeds stream r; about 2 us a stream.
    """
    out = np.empty((len(states), count), dtype=np.uint64)
    for row, words in zip(out, states):
        row[:] = np.random.PCG64(_Words(words)).random_raw(count)
    return out


def _integers_block(seed: int, n: int, m: int, b_reps: int) -> np.ndarray:
    """Row r is ``derive_rng(seed, r).integers(0, n, size=m)``, r < b_reps.

    The (b_reps, m) int64 block is computed for all rows at once, bit for
    bit as the per-row generators would draw it, with ``b_reps <= 2**32``.
    ``Generator.integers`` takes 32-bit candidates, the low half of each
    PCG64 output first, and keeps ``(u * n) >> 32`` unless the low half of
    ``u * n`` falls below ``(2**32 - n) % n`` (Lemire's method). Outputs
    are computed for a budget of candidates that is doubled until every
    row has m accepted values. This step stays vectorized, not one
    ``Generator.integers`` call a row, which costs about 6 us a call.
    """
    seed = _check_path(seed, ())[0]
    if n > _MAX_N:
        raise InputError(
            f"bootstrap draws support at most {_MAX_N} rows (2**32 - 1), got n = {n}"
        )
    states = _seed_states(seed, np.arange(b_reps, dtype=np.uint32))
    n64 = np.uint64(n)
    threshold = np.uint64((2**32 - n) % n)
    count = -(-m // 2) + 1
    while True:
        out = _pcg_outputs(states, count)
        cand = np.stack([out & _M32, out >> np.uint64(32)], axis=-1).reshape(b_reps, -1)
        prod = cand * n64
        accepted = (prod & _M32) >= threshold
        rank = np.cumsum(accepted, axis=1)
        if rank[:, -1].min() >= m:
            keep = accepted & (rank <= m)
            return (prod[keep] >> np.uint64(32)).astype(np.int64).reshape(b_reps, m)
        count *= 2
