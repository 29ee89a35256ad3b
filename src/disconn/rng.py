"""Deterministic, portable pseudo-random streams.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter
advanced by the golden-gamma constant, finalized by two xor-shift-multiply
rounds.  It is tiny, has no hidden global state, and produces identical
streams on every platform, which is what makes verification reports
byte-reproducible.

Independent sub-streams are derived from a seed plus integer keys via
:func:`substream`, so parallel or block-wise sampling with per-sample streams
yields the same draws as a serial run.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def angle(self) -> float:
        """Uniform angle in the canonical interval (-pi, pi]."""
        u = ((self.next_u64() >> 11) + 1) * (1.0 / (1 << 53))  # (0, 1]
        return -math.pi + math.tau * u

    def normal_pair(self) -> tuple[float, float]:
        """Two independent standard normals via Box-Muller."""
        u1 = ((self.next_u64() >> 11) + 1) * (1.0 / (1 << 53))  # (0, 1]
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        a = math.tau * u2
        return r * math.cos(a), r * math.sin(a)


def substream(seed: int, *keys: int) -> SplitMix64:
    """Derive an independent stream from ``seed`` and integer ``keys``.

    The state is folded as state = mix(state + gamma * (key + 1)) per key,
    so (seed, axiom, sample-index) style addressing is stable across runs
    and across serial and block-wise execution orders.
    """
    state = seed & _MASK
    for k in keys:
        state = _mix((state + _GAMMA * ((k & _MASK) + 1)) & _MASK)
    return SplitMix64(state)
