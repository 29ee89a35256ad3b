"""Counter-addressed row draws, bit for bit against the serial stream.

The row functions of ``disconn.rng`` and the bundles' row builders are
compared with the scalar generator and with serial references written
here: the Box-Muller pair and the box-uniform coordinates that points
were first drawn with, one ``next_u64`` call at a time.  Floats are
compared by ``repr``, so a zero of the wrong sign fails.
"""

import math

import numpy as np
import pytest

from disconn.algebra import CircleElement, Quaternion, UnitQuaternion, unit_components
from disconn.bundle import HopfBundle, TrivialBundle
from disconn.rng import (
    _GAMMA,
    _MASK,
    SplitMix64,
    _mix,
    draw_rows,
    substream,
    substream_states,
    uniforms,
)

N_STREAMS = 10_000
#: the point that stream substream(31, LOG_STREAM) opens with moves when its
#: two logs move up by one ulp
LOG_STREAM = 0


def bits(value):
    if isinstance(value, UnitQuaternion):
        return tuple(map(repr, value.components()))
    if isinstance(value, Quaternion):
        return ("base", *map(repr, value.components()))
    if isinstance(value, CircleElement):
        return ("group", repr(value.angle))
    if isinstance(value, tuple):
        return ("base", *map(repr, value))
    return (tuple(map(repr, value.r)), repr(value.g.angle))


def serial_uniform(rng, low=0):
    return ((rng.next_u64() >> 11) + low) * (1.0 / (1 << 53))


def serial_angle(rng):
    return -math.pi + math.tau * serial_uniform(rng, 1)


def serial_normal_pair(rng):
    """Box-Muller from two draws, as the stream's own method computed it."""
    u1 = serial_uniform(rng, 1)
    u2 = serial_uniform(rng)
    r = math.sqrt(-2.0 * math.log(u1))
    a = math.tau * u2
    return r * math.cos(a), r * math.sin(a)


def serial_point(bundle, rng, box):
    if isinstance(bundle, HopfBundle):
        w, x = serial_normal_pair(rng)
        y, z = serial_normal_pair(rng)
        return UnitQuaternion(*unit_components(w, x, y, z))
    coords = tuple(-box + (box - -box) * serial_uniform(rng) for _ in range(bundle.dim))
    return bundle.point(coords, CircleElement(serial_angle(rng)))


def serial_sample(bundle, rng, kinds, box):
    values = []
    for kind in kinds:
        if kind == "group":
            values.append(CircleElement(serial_angle(rng)))
        else:
            q = serial_point(bundle, rng, box)
            values.append(q if kind == "point" else bundle.project(q))
    return values


def test_row_mix_matches_mix():
    edges = [0, 1, _MASK, _MASK - 1, 1 << 63, (1 << 63) - 1]
    edges += [(k * _GAMMA) & _MASK for k in range(1, 200)]
    edges += [(-k * _GAMMA) & _MASK for k in range(1, 200)]
    rng = SplitMix64(2024)
    states = edges + [rng.next_u64() for _ in range(100_000 - len(edges))]
    rows = _mix(np.array(states, dtype=np.uint64)).tolist()
    assert rows == [_mix(z) for z in states]


@pytest.mark.parametrize("seed", [0, 5, -1, -(1 << 63), 1 << 63, _MASK, (1 << 64) + 3,
                                  (1 << 80) - 7])
@pytest.mark.parametrize("key", [0, 2, -1, -(1 << 40), _MASK, 1 << 64])
def test_row_states_match_substream(seed, key):
    indices = [*range(300), -1, -2, -(1 << 63), 1 << 63, _MASK, 1 << 64]
    states = substream_states(seed, key, indices).tolist()
    assert states == [substream(seed, key, i)._state for i in indices]
    # the seed may vary per row as well, as the slice probes address streams
    seeds = range(seed, seed + 50)
    assert substream_states(seeds, key).tolist() == [substream(s, key)._state for s in seeds]
    assert substream_states(seed).tolist() == [substream(seed)._state]


def test_draw_blocks_at_offsets_match_successive_calls():
    states = substream_states(17, 3, range(200))
    offsets = [0, 1, 2, 7, 1000, (1 << 40) + 3] * 33 + [5, 0]
    block = draw_rows(states, offsets, 9).tolist()
    for state, offset, row in zip(states.tolist(), offsets, block):
        # after k calls of next_u64 a stream's state has moved by k gammas
        rng = SplitMix64(state if offset < 2000 else (state + offset * _GAMMA) & _MASK)
        for _ in range(offset if offset < 2000 else 0):
            rng.next_u64()
        assert row == [rng.next_u64() for _ in range(9)]


def test_next_row_is_the_next_draws_and_advances_the_stream():
    rng, ref = substream(4, 4), substream(4, 4)
    assert rng.next_row(5).tolist() == [[ref.next_u64() for _ in range(5)]]
    assert rng.next_u64() == ref.next_u64()


def test_uniforms_match_the_stream():
    rng, ref = substream(8, 1), substream(8, 1)
    assert [rng.uniform() for _ in range(500)] == [serial_uniform(ref) for _ in range(500)]
    assert [rng.angle() for _ in range(500)] == [serial_angle(ref) for _ in range(500)]
    draws = [rng.next_u64() for _ in range(1000)] + [0, 1, _MASK]
    row = np.array(draws, dtype=np.uint64)
    assert uniforms(row).tolist() == [(d >> 11) * 2.0 ** -53 for d in draws]
    assert uniforms(row, 1).tolist() == [((d >> 11) + 1) * 2.0 ** -53 for d in draws]


@pytest.mark.parametrize("bundle", [HopfBundle(), TrivialBundle(1), TrivialBundle(3)],
                         ids=["hopf", "trivial-r1", "trivial-r3"])
def test_bundle_rows_match_the_serial_draws(bundle):
    kinds = ("point", "group", "base", "point")
    box = 1.75
    count = sum(map(bundle.draw_count, kinds))
    states = substream_states(29, bundle.dim_base, range(N_STREAMS))
    columns = bundle.sample_rows(kinds, draw_rows(states, [0] * N_STREAMS, count), box)
    rows = [tuple(map(bits, values)) for values in zip(*columns)]
    ref = [tuple(map(bits, serial_sample(bundle, substream(29, bundle.dim_base, i), kinds, box)))
           for i in range(N_STREAMS)]
    assert rows == ref
    # the one-row case: sample_point and sample_group read one stream in turn
    rng, ref_rng = substream(30, 1), substream(30, 1)
    for _ in range(200):
        assert bits(bundle.sample_point(rng, box=box)) == bits(serial_point(bundle, ref_rng, box))
        assert bits(bundle.sample_group(rng)) == bits(CircleElement(serial_angle(ref_rng)))
    # one block of a stream's draws, a row per point, as slice-probe reads its points
    block = substream(30, 2).next_row(100 * bundle.point_draws).reshape(100, -1)
    ref_rng = substream(30, 2)
    assert list(map(bits, bundle.sample_rows(("point",), block, box)[0])) == [
        bits(serial_point(bundle, ref_rng, box)) for _ in range(100)]


def test_hopf_rows_take_the_log_from_math(monkeypatch):
    hopf = HopfBundle()
    block = draw_rows(substream_states(31, [LOG_STREAM]), [0], 4)
    (point,), = hopf.sample_rows(("point",), block)
    assert bits(point) == bits(serial_point(hopf, substream(31, LOG_STREAM), None))
    # mutation check, whatever numpy's own log gives on this CPU: the point's
    # bits follow each result of math.log
    log = math.log
    monkeypatch.setattr(math, "log", lambda u: math.nextafter(log(u), math.inf))
    (moved,), = hopf.sample_rows(("point",), block)
    assert bits(moved) != bits(point)
