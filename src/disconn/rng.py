"""Deterministic, portable pseudo-random streams.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter
advanced by the golden-gamma constant, finalized by two xor-shift-multiply
rounds.  It is tiny, has no hidden global state, and produces identical
streams on every platform, which is what makes verification reports
byte-reproducible.

Independent sub-streams are derived from a seed plus integer keys via
:func:`substream`, so parallel or block-wise sampling with per-sample streams
yields the same draws as a serial run.  Draw j (from 1) of a stream with
state S is mix(S + j * gamma), so :func:`substream_states` and
:func:`draw_rows` give many streams and any window of their draws as
uint64 arrays, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 1.0 / (1 << 53)


def _mix(z):
    """SplitMix64's output function, on an int or elementwise on a uint64 array
    (whose products wrap mod 2^64, as the mask makes them on ints)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def uniforms(draws, low: int = 0):
    """Floats in [0, 1) from the top 53 bits of each draw, or in (0, 1] for
    ``low`` 1; on an int draw or elementwise on a uint64 array."""
    return ((draws >> 11) + low) * _UNIT


def angles(draws):
    """Uniform angles in the canonical interval (-pi, pi], as :func:`uniforms`."""
    return -math.pi + math.tau * uniforms(draws, 1)


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def next_row(self, count: int) -> np.ndarray:
        """The next ``count`` draws as a (1, count) block."""
        return np.array([[self.next_u64() for _ in range(count)]], dtype=np.uint64)

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 random bits."""
        return uniforms(self.next_u64())

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def angle(self) -> float:
        """Uniform angle in the canonical interval (-pi, pi]."""
        return angles(self.next_u64())


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


def _key_row(x) -> np.ndarray:
    if isinstance(x, range):  # start + i step, wrapped mod 2^64 as the mask wraps it
        return np.arange(len(x), dtype=np.uint64) * (x.step & _MASK) + (x.start & _MASK)
    return np.array([v & _MASK for v in ([x] if isinstance(x, int) else x)], dtype=np.uint64)


def substream_states(seed, *keys) -> np.ndarray:
    """States of ``substream(seed, *keys)`` as a uint64 row; the seed and each
    key is an int, or an iterable of ints giving one value per stream."""
    state, *keys = map(_key_row, (seed, *keys))
    for k in keys:
        state = _mix(state + (k + 1) * _GAMMA)
    return state


def draw_rows(states: np.ndarray, offsets, count: int) -> np.ndarray:
    """(n, count) block whose row i is what calls offsets[i] + 1 to offsets[i] +
    count of ``next_u64`` return on a stream with state states[i]."""
    offsets = np.asarray(offsets, dtype=np.uint64)
    calls = offsets[:, None] + np.arange(1, count + 1, dtype=np.uint64)
    return _mix(states[:, None] + calls * _GAMMA)
