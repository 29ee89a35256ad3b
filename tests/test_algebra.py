import math

import pytest
from hypothesis import given, strategies as st

from disconn import (
    CIRCLE_IDENTITY,
    CircleElement,
    Q_I,
    Q_ONE,
    Quaternion,
    UnitQuaternion,
    canonical_angle,
    circle_distance,
)

from conftest import Q_J, Q_K

components = st.floats(min_value=-100.0, max_value=100.0,
                       allow_nan=False, allow_infinity=False)


def quaternions(min_norm=0.0):
    def build(w, x, y, z):
        return Quaternion(w, x, y, z)
    strat = st.builds(build, components, components, components, components)
    if min_norm > 0.0:
        strat = strat.filter(lambda q: q.norm() > min_norm)
    return strat


def qdist(a: Quaternion, b: Quaternion) -> float:
    return (a - b).norm()


class TestQuaternionBasics:
    def test_multiplication_table(self):
        assert Q_I * Q_J == Q_K
        assert Q_J * Q_K == Q_I
        assert Q_K * Q_I == Q_J
        assert Q_I * Q_I == -Q_ONE

    def test_unit_product_example(self):
        s = 1.0 / math.sqrt(2.0)
        a = Quaternion(s, 0.0, s, 0.0)
        b = Quaternion(s, 0.0, -s, 0.0)
        assert qdist(a * b, Q_ONE) < 1e-15

    def test_conj_examples(self):
        assert Q_I.conj() == -Q_I
        assert Q_ONE.conj() == Q_ONE
        q = Quaternion(0.5, 0.5, 0.5, 0.5)
        assert q.conj() == Quaternion(0.5, -0.5, -0.5, -0.5)

    def test_project_examples(self):
        # a coefficient is read as a field: w, x, y, z for 1, i, j, k
        assert Quaternion(0.6, 0.8, 0.0, 0.0).w == 0.6
        assert Q_K.x == 0.0
        assert (Q_I * Q_J).x == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Quaternion(math.nan, 0.0, 0.0, 0.0)


class TestQuaternionProperties:
    @given(quaternions(), quaternions())
    def test_norm_multiplicative(self, a, b):
        prod = a * b
        assert abs(prod.norm() - a.norm() * b.norm()) <= 1e-12 * max(
            1.0, a.norm() * b.norm())

    @given(quaternions(), quaternions())
    def test_conj_antihomomorphism(self, a, b):
        lhs = (a * b).conj()
        rhs = b.conj() * a.conj()
        scale = max(1.0, a.norm() * b.norm())
        assert qdist(lhs, rhs) <= 1e-12 * scale

    @given(quaternions(min_norm=1e-3), quaternions(min_norm=1e-3),
           quaternions(min_norm=1e-3))
    def test_associativity(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        scale = max(1.0, a.norm() * b.norm() * c.norm())
        assert qdist(lhs, rhs) <= 1e-12 * scale


class TestUnitQuaternion:
    def test_renormalizes_small_drift(self):
        eps = 1e-7
        q = UnitQuaternion(1.0 + eps, 0.0, 0.0, 0.0)
        assert abs(q.norm() - 1.0) <= 1e-9

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            UnitQuaternion(1.1, 0.0, 0.0, 0.0)

    def test_product_closure(self):
        a = UnitQuaternion(0.5, 0.5, 0.5, 0.5)
        b = UnitQuaternion(1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0), 0.0)
        prod = a * b
        assert abs(prod.norm() - 1.0) < 1e-9
        UnitQuaternion.from_quaternion(prod)


class TestCircleGroup:
    def test_angle_addition(self):
        g = CircleElement(0.3) * CircleElement(0.5)
        assert abs(g.angle - 0.8) < 1e-15

    def test_wraparound(self):
        g = CircleElement(math.pi - 0.1) * CircleElement(math.pi - 0.1)
        assert abs(g.angle - (-0.2)) < 1e-15

    def test_inverse_at_pi(self):
        assert CircleElement(math.pi).inverse().angle == math.pi

    def test_canonical_boundary(self):
        assert canonical_angle(-math.pi) == math.pi
        assert canonical_angle(math.pi) == math.pi
        assert CircleElement(-math.pi).angle == math.pi

    @given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
    def test_group_laws(self, a, b, c):
        ga, gb, gc = CircleElement(a), CircleElement(b), CircleElement(c)
        assoc = circle_distance((ga * gb) * gc, ga * (gb * gc))
        assert assoc <= 1e-12
        assert circle_distance(ga * CIRCLE_IDENTITY, ga) == 0.0
        assert circle_distance(ga * ga.inverse(), CIRCLE_IDENTITY) <= 1e-15

    @given(st.floats(-1e6, 1e6))
    def test_canonical_range(self, raw):
        g = CircleElement(raw)
        assert -math.pi < g.angle <= math.pi
