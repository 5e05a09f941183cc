"""Deterministic random-stream derivation.

All randomness in the package flows through :func:`derive_rng`, which maps a
master seed plus an integer path (for example ``(cell, replication)``) to an
independent generator. Streams depend only on the seed and path, never on
execution order or thread count, so any parallel schedule reproduces the
same results bit for bit.

The bootstrap's index block, :func:`_integers_block`, reproduces the draws
of the streams ``derive_rng(seed, r)`` for every replicate r without
building them: NumPy's ``SeedSequence`` hashing, ``PCG64`` seeding and
output, and the bounded-integer method of ``Generator.integers`` are
computed for all streams at once on uint32 and uint64 arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def _check_path(seed: int, path: tuple[int, ...]) -> list[int]:
    parts = [seed, *path]
    out = []
    for p in parts:
        q = int(p)
        if q < 0:
            raise InputError(f"seed path entries must be non-negative, got {q}")
        out.append(q)
    return out


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
# The PCG64 (XSL-RR) multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = np.uint64(0xFFFFFFFF)
_M128 = (1 << 128) - 1
# Largest n drawn by the 32-bit Lemire method; NumPy switches method above it.
_MAX_N = 2**32 - 1


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def _seed_states(seed: int, streams: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence([seed, r]).generate_state(4, uint64)`` for every r.

    ``streams`` is a uint32 vector of stream numbers r < 2**32 (one entropy
    word each). The four uint64 words come back as four vectors.
    """
    words = [seed & 0xFFFFFFFF]
    seed >>= 32
    while seed:
        words.append(seed & 0xFFFFFFFF)
        seed >>= 32
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
        out.append(_xorshift(v * np.uint32(hash_const)).astype(np.uint64))
    # Pairs of 32-bit words, little-endian, make the uint64 words.
    return [out[2 * k] | (out[2 * k + 1] << np.uint64(32)) for k in range(_POOL_SIZE)]


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1 = a & _M32, a >> np.uint64(32)
    b0, b1 = b & _M32, b >> np.uint64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> np.uint64(32)) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def _mul128(hi, lo, c_hi, c_lo):
    """(hi:lo) * (c_hi:c_lo) mod 2**128, as (hi, lo) uint64 arrays."""
    return _mulhi64(lo, c_lo) + hi * c_lo + lo * c_hi, lo * c_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _split128(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype=np.uint64),
    )


def _pcg_outputs(states: list[np.ndarray], count: int) -> np.ndarray:
    """The first ``count`` PCG64 outputs of every stream, (streams, count).

    PCG64 seeds ``state = inc``, adds ``initstate`` and takes one step
    ``state = state * M + inc``; output j follows j + 1 further steps.
    With ``t = inc + initstate`` the state behind output j is therefore
    ``M**(j+2) * t + (M**0 + ... + M**(j+1)) * inc``, whose coefficients
    are the same for every stream.
    """
    s0, s1, s2, s3 = (s[:, None] for s in states)
    inc_hi = (s2 << np.uint64(1)) | (s3 >> np.uint64(63))
    inc_lo = (s3 << np.uint64(1)) | np.uint64(1)
    t_hi, t_lo = _add128(inc_hi, inc_lo, s0, s1)

    powers, sums = [], []
    power, total = 1, 0
    for _ in range(count + 2):
        total = (total + power) & _M128
        power = (power * _PCG_MULT) & _M128
        powers.append(power)
        sums.append(total)
    a_hi, a_lo = _split128(powers[1:])
    c_hi, c_lo = _split128(sums[1:])
    hi, lo = _add128(*_mul128(t_hi, t_lo, a_hi, a_lo), *_mul128(inc_hi, inc_lo, c_hi, c_lo))

    # XSL-RR: rotate hi ^ lo right by the top six bits of hi.
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def _integers_block(seed: int, n: int, m: int, b_reps: int) -> np.ndarray:
    """Row r is ``derive_rng(seed, r).integers(0, n, size=m)``, r < b_reps.

    The (b_reps, m) int64 block is computed for all rows at once, bit for
    bit as the per-row generators would draw it, with ``b_reps <= 2**32``.
    ``Generator.integers`` takes 32-bit candidates, the low half of each
    PCG64 output first, and keeps ``(u * n) >> 32`` unless the low half of
    ``u * n`` falls below ``(2**32 - n) % n`` (Lemire's method). Outputs
    are computed for a budget of candidates that is doubled until every
    row has m accepted values.
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
