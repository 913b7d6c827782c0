"""Deterministic random numbers: PCG-XSH-RR 64/32 with derived streams.

Every stochastic piece of the toolkit (weight init, dropout masks, epoch
shuffles, synthetic data) draws from its own stream derived from one master
seed, so a single integer reproduces an entire experiment bit-for-bit,
independent of numpy's global state or generator versioning.

The generator is the classic 32-bit-output PCG (O'Neill): a 64-bit LCC
state advanced by ``state * MULT + inc`` with an XSH-RR output permutation.
Batches are generated in closed form (``state_i = A^i * s0 + (sum_j<i A^j) * c``
mod 2^64) so large draws are vectorized in numpy while staying identical to
the sequential recurrence. The tables ``A^i`` and ``sum_j<i A^j`` depend only
on the draw length, so they are built once per length and cached, read-only,
for every stream and thread to share; a training run draws only a few
lengths (full-batch masks, the last batch's masks, the epoch shuffle).

Dropout masks need only the comparison ``random() >= x``. A uniform is
``k * 2^-53`` with ``k = hi << 21 | lo >> 11`` built from two consecutive
words, so the comparison is exactly ``k >= ceil(x * 2^53)``; ``random_ge``
decides it from the high word alone and computes a low word only on a tie
of the high words (about 2^-32 of draws), with the same result and the same
final state as ``random``.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_MULT = 6364136223846793005


def _splitmix64(x: int) -> int:
    """One splitmix64 scramble step; used only for seed/stream derivation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _tag_hash(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed(seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed for (seed, tag); used to key child components."""
    return _splitmix64((seed & _MASK64) ^ _tag_hash(tag))


@functools.lru_cache(maxsize=8)
def _jump_tables(n: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """``powers[i] = A^i`` and ``sums[i] = sum_{j<i} A^j`` (mod 2^64) for
    ``i < n``, read-only, and the n-step jump ``(a_n, b_n)``: advancing n
    steps maps ``s`` to ``a_n * s + b_n * inc``."""
    try:
        powers = np.empty(n, dtype=np.uint64)
    except ValueError as exc:  # numpy's refusal of a length or byte count past its index type
        raise MemoryError(f"{n} random draws are more than numpy can hold in one array") from exc
    powers[0] = np.uint64(1)
    powers[1:] = np.cumprod(np.full(n - 1, np.uint64(_MULT), dtype=np.uint64))
    sums = np.zeros(n, dtype=np.uint64)
    sums[1:] = np.cumsum(powers[:-1])
    powers.flags.writeable = False
    sums.flags.writeable = False
    a_n = (int(powers[-1]) * _MULT) & _MASK64
    b_n = (int(sums[-1]) + int(powers[-1])) & _MASK64
    return powers, sums, a_n, b_n


def _xsh_rr(states: np.ndarray) -> np.ndarray:
    """The XSH-RR output word (uint32) of each uint64 state."""
    xorshifted = (((states >> np.uint64(18)) ^ states) >> np.uint64(27)).astype(np.uint32)
    rot = (states >> np.uint64(59)).astype(np.uint32)
    return (xorshifted >> rot) | (xorshifted << ((-rot) & np.uint32(31)))


class Pcg32:
    """PCG-XSH-RR 64/32 stream.

    Scalar state arithmetic uses Python ints (exact, no overflow warnings);
    bulk draws use uint64 numpy arrays with wrapping semantics.
    """

    def __init__(self, seed: int, stream: int = 0):
        self._base_seed = seed & _MASK64
        self._inc = ((stream & _MASK64) << 1 | 1) & _MASK64
        self._state = 0
        self._step()
        self._state = (self._state + self._base_seed) & _MASK64
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _MULT + self._inc) & _MASK64

    @staticmethod
    def _output(state: int) -> int:
        xorshifted = ((state >> 18) ^ state) >> 27 & 0xFFFFFFFF
        rot = state >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF

    def next_u32(self) -> int:
        old = self._state
        self._step()
        return self._output(old)

    def u32_array(self, n: int) -> np.ndarray:
        """n outputs of the sequential recurrence, computed vectorized."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        states = self._states(n, 1)
        return _xsh_rr(states).astype(np.uint64)

    def _states(self, n: int, stride: int) -> np.ndarray:
        """The states at positions 0, stride, 2*stride, ... of the next n
        steps; the generator advances n steps."""
        powers, sums, a_n, b_n = _jump_tables(n)
        s0, inc = self._state, self._inc
        self._state = (a_n * s0 + b_n * inc) & _MASK64
        return powers[::stride] * np.uint64(s0) + sums[::stride] * np.uint64(inc)

    def random(self, n: int | None = None):
        """Uniform float64 in [0, 1) with full 53-bit resolution."""
        m = 1 if n is None else n
        bits = self.u32_array(2 * m)
        u64 = (bits[0::2] << np.uint64(32)) | bits[1::2]
        vals = (u64 >> np.uint64(11)).astype(np.float64) * (2.0**-53)
        return float(vals[0]) if n is None else vals

    def random_ge(self, n: int, x: float) -> np.ndarray:
        """Exactly ``self.random(n) >= x``, leaving the same state (2n words).

        Only the high word of each uniform is computed; a low word is
        computed only where the high word ties the threshold's.
        """
        if n == 0:
            return np.empty(0, dtype=bool)
        states = self._states(2 * n, 2)
        if not 0.0 < x < 1.0:
            return np.full(n, x <= 0.0)
        # x * 2^53 is exact for x in (0, 1), and 1 <= t <= 2^53 - 1
        t = math.ceil(x * 2.0**53)
        t_hi = np.uint32(t >> 21)
        hi = _xsh_rr(states)
        out = hi > t_hi
        ties = np.flatnonzero(hi == t_hi)
        if ties.size:
            lo = _xsh_rr(states[ties] * np.uint64(_MULT) + np.uint64(self._inc))
            out[ties] = (lo >> np.uint32(11)) >= np.uint32(t & 0x1FFFFF)
        return out

    def uniform(self, lo: float, hi: float, n: int | None = None):
        u = self.random(n)
        return lo + (hi - lo) * u

    def normal(self, n: int | None = None):
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        m = 1 if n is None else n
        pairs = (m + 1) // 2
        u = self.random(2 * pairs)
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        theta = 2.0 * np.pi * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        z = z[:m]
        return float(z[0]) if n is None else z

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n), as int64.

        Bounded draws use the multiply-shift trick ``(u32 * k) >> 32``; the
        ~2^-32 bias is irrelevant for shuffling and keeps the draw count at
        exactly one word per swap. The swaps run on a list of Python ints,
        which is cheaper than indexing numpy elements one at a time.
        """
        if n < 2:
            return np.arange(n)
        perm = list(range(n))
        words = self.u32_array(n - 1).tolist()
        for i, word in zip(range(n - 1, 0, -1), words):
            j = (word * (i + 1)) >> 32
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)

    def derive(self, tag: str) -> "Pcg32":
        """Child stream keyed by (this stream's seed, tag); independent draws."""
        h = _tag_hash(tag)
        seed = _splitmix64(self._base_seed ^ h)
        stream = _splitmix64((self._base_seed + h) & _MASK64)
        return Pcg32(seed, stream)
