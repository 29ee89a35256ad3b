import math

import numpy as np
import pytest

from disconn.bundle import HopfBundle
from disconn.rng import SplitMix64, substream, substream_states


def test_streams_are_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(32)] == [b.next_u64() for _ in range(32)]


def test_substreams_differ_by_key():
    draws = {key: substream(9, key).next_u64() for key in range(64)}
    assert len(set(draws.values())) == 64


def test_substream_argument_order_matters():
    assert substream(1, 2, 3).next_u64() != substream(1, 3, 2).next_u64()


@pytest.mark.parametrize("keys", [range(6), range(1000, 1006), range(2**63 - 3, 2**63 + 3),
                                  range(5, -7, -3)])
def test_range_keys_give_the_states_of_list_keys(keys):
    states = substream_states(11, 2, keys)
    assert states.tolist() == substream_states(11, 2, list(keys)).tolist()
    assert states.tolist() == [substream(11, 2, k)._state for k in keys]


def test_uniform_range():
    rng = SplitMix64(7)
    values = [rng.uniform() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.02


def test_angle_range():
    rng = SplitMix64(8)
    values = [rng.angle() for _ in range(10_000)]
    assert all(-math.pi < v <= math.pi for v in values)


def test_sampled_sphere_point_moments():
    # a uniform point of the unit 3-sphere: each component has mean 0 and
    # second moment 1/4, and distinct components are uncorrelated
    hopf = HopfBundle()
    rows = np.array([hopf.sample_point(substream(9, i)).components() for i in range(5_000)])
    assert np.all(np.abs(rows.mean(axis=0)) < 0.02)
    second = rows.T @ rows / len(rows)
    assert np.all(np.abs(np.diag(second) - 0.25) < 0.02)
    assert np.all(np.abs(second - np.diag(np.diag(second))) < 0.02)
