"""Deterministic pseudo-random numbers.

All stochastic behaviour in the package flows through the generators in
this module so that results are reproducible from a single 64-bit seed,
independent of numpy's RNG internals. The algorithms are pinned exactly so
another implementation can reproduce every stream bit for bit:

* ``SplitMix64``: state advances by the 64-bit golden ratio constant
  ``0x9E3779B97F4A7C15``; output is the standard two-round xor/multiply
  finalizer (constants ``0xBF58476D1CE4E5B9`` and ``0x94D049BB133111EB``,
  shifts 30/27/31).
* ``Rng``: an xorshift64* stream (shifts 12, 25, 27; multiplier
  ``0x2545F4914F6CDD1D``). Its state is the first nonzero output of a
  SplitMix64 seeded with the user seed.
* Uniforms in [0, 1) take the top 53 bits: ``(u64 >> 11) * 2**-53``.
* Normals use the Box-Muller cosine branch and consume exactly two
  uniforms each: ``z = sqrt(-2*ln(1 - u1)) * cos(2*pi*u2)``.
* ``derive_seed(master, tag)`` = one SplitMix64 output of
  ``master XOR fnv1a64(utf8(tag))``, which lets pipeline stages draw
  independent sub-seeds from one master seed.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
MAX_SEED = _MASK64  # derive_seed masks a larger or negative seed to one of [0, MAX_SEED]
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STAR = 0x2545F4914F6CDD1D

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class SplitMix64:
    """Minimal SplitMix64 stream; used for seeding and seed derivation."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64


class Rng:
    """xorshift64* generator with uniform/normal helpers."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        sm = SplitMix64(seed)
        s = sm.next_u64()
        while s == 0:  # xorshift state must be nonzero
            s = sm.next_u64()
        self._state = s

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _STAR) & _MASK64

    def uniform(self) -> float:
        """One double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` successive ``uniform()`` draws as a float64 array."""
        return np.array([self.uniform() for _ in range(n)], dtype=np.float64)

    def normal(self) -> float:
        """One standard normal; consumes exactly two uniforms."""
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)

    def shuffle(self, items: list | np.ndarray) -> None:
        """In-place Fisher-Yates using ``next_u64() % k`` for the pick."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def derive_seed(master: int, tag: str) -> int:
    """Stable per-stage sub-seed from a master seed and a stage tag."""
    return SplitMix64((master ^ fnv1a64(tag.encode("utf-8"))) & _MASK64).next_u64()
