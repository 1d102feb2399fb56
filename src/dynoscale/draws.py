"""Seeded draws: numpy's ``default_rng`` stream, reproduced in Python ints.

``default_rng(seed)`` returns a generator whose methods give bit for bit
what numpy's ``default_rng(seed)`` gives for the same call sequence:
``SeedSequence`` seeding, PCG64 (XSL-RR 128/64, O'Neill 2014), bounded
integers by Lemire's multiply-shift (Lemire 2019) and 53-bit doubles.
Numpy does not promise that its ``Generator`` streams stay fixed between
releases; this one is fixed, and it loads no part of numpy's random
package (nor, through it, ``secrets`` and OpenSSL).  Calls outside the
supported shapes raise ``ValueError`` instead of diverging.
"""

from __future__ import annotations

import operator

import numpy as np

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
INIT_A, MULT_A, INIT_B, MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
MIX_MULT_L, MIX_MULT_R = 0xca01f9dd, 0x4973f715
POOL_SIZE = 4


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    entropy = [seed >> s & M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * MULT_A & M32
        value = value * const & M32
        return value ^ value >> 16

    def mix(x, y):
        r = (MIX_MULT_L * x - MIX_MULT_R * y) & M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = INIT_B, []
    for i in range(8):
        value = pool[i % POOL_SIZE] ^ const
        const = const * MULT_B & M32
        value = value * const & M32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """The subset of numpy's ``Generator`` this package calls."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("seed must be non-negative")
        w = _seed_words(seed)
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & M128
        self._state = 0
        self._next64()
        self._state = (self._state + (w[0] << 64 | w[1])) & M128
        self._next64()
        self._half = None  # the unused high half of the last 64-bit output

    def _next64(self) -> int:
        self._state = s = (self._state * PCG_MULT + self._inc) & M128
        x, r = (s >> 64 ^ s) & M64, s >> 122
        return (x >> r | x << (64 - r)) & M64

    def _next32(self) -> int:
        if self._half is not None:
            value, self._half = self._half, None
            return value
        value = self._next64()
        self._half = value >> 32
        return value & M32

    def _bounded(self, rng: int) -> int:
        """Uniform on [0, rng], rng < 2**32 - 1: Lemire's multiply-shift."""
        if rng == 0:
            return 0
        excl = rng + 1
        m = self._next32() * excl
        if m & M32 < excl:
            threshold = (M32 - rng) % excl
            while m & M32 < threshold:
                m = self._next32() * excl
        return m >> 32

    def _double(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low, high=None, size=None):
        """Uniform on [low, high), or [0, low) without ``high``."""
        if high is None:
            low, high = 0, low
        low, high = operator.index(low), operator.index(high)
        if not (high > low and high - low <= M32 and low >= -(1 << 63)
                and high <= 1 << 63):
            raise ValueError(f"unsupported range [{low}, {high})")
        rng = high - low - 1
        if size is None:
            return low + self._bounded(rng)
        return np.array([low + self._bounded(rng) for _ in range(size)], dtype=np.int64)

    def choice(self, a, size=None, replace=True):
        """One element of a sequence, or ``size`` distinct values of range(a)."""
        if size is None and replace and hasattr(a, "__len__"):
            return a[self.integers(len(a))]
        if replace or size is None or not hasattr(a, "__index__"):
            raise ValueError("supported: choice(seq) and choice(n, k, replace=False)")
        n, k = operator.index(a), operator.index(size)
        if not 0 <= k <= n <= M32:
            raise ValueError(f"cannot draw {k} distinct values of range({n})")
        if n > 10000 and k > n // 50:  # tail shuffle of range(n)
            picks = self._shuffle(list(range(n)), max(n - k, 1))
            return np.array(picks[n - k:], dtype=np.int64)
        picks, seen = [], set()  # Floyd's algorithm, then a shuffle
        for j in range(n - k, n):
            v = self._bounded(j)
            v = j if v in seen else v
            seen.add(v)
            picks.append(v)
        return np.array(self._shuffle(picks, 1), dtype=np.int64)

    def _shuffle(self, items: list, first: int) -> list:
        """Fisher-Yates on ``items[first:]`` from the top, swaps reaching down to 0."""
        for i in range(len(items) - 1, first - 1, -1):
            j = self._bounded(i)
            items[i], items[j] = items[j], items[i]
        return items

    def uniform(self, low, high):
        """Uniform on [low, high)."""
        low, high = float(low), float(high)
        width = high - low
        if not 0 <= width < float("inf"):
            raise ValueError(f"unsupported range [{low}, {high})")
        return low + width * self._double()

    def random(self, shape):
        """Doubles on [0, 1) filling an array of ``shape`` row-major."""
        values = [self._double() for _ in range(int(np.prod(shape)))]
        return np.array(values, dtype=np.float64).reshape(shape)


def default_rng(seed: int) -> Generator:
    """The stream of numpy's ``default_rng(seed)``, for an integer seed >= 0."""
    return Generator(seed)
