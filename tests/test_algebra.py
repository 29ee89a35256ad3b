import math
import random
import re
from dataclasses import FrozenInstanceError, dataclass

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
from disconn.algebra import RENORMALIZE_LIMIT

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


@dataclass(frozen=True)
class TwoStepCircle:
    """CircleElement as first written: the field is set, then checked and reduced."""

    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError("circle angle must be finite")
        object.__setattr__(self, "angle", canonical_angle(self.angle))


class TwoStepUnit(Quaternion):
    """UnitQuaternion as first written: the fields are set, then checked and rescaled."""

    def __post_init__(self):
        super().__post_init__()
        n = self.norm()
        drift = abs(n - 1.0)
        if drift > RENORMALIZE_LIMIT:
            raise ValueError(f"norm {n} is too far from 1 to renormalize")
        if drift > 0.0:
            object.__setattr__(self, "w", self.w / n)
            object.__setattr__(self, "x", self.x / n)
            object.__setattr__(self, "y", self.y / n)
            object.__setattr__(self, "z", self.z / n)


# the references print under the names of the classes they stand for
TwoStepCircle.__qualname__ = "CircleElement"
TwoStepUnit.__qualname__ = "UnitQuaternion"

TAU = math.tau
ANGLE_TABLE = [
    math.pi, -math.pi, math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0),
    *(k * TAU for k in (-3, -2, -1, 1, 2, 3, 10**6)), 0.0, -0.0, 5e-324, -5e-324,
    1e300, -1e300, 7.0, 7, 0, -3, math.nan, math.inf, -math.inf,
]
DRIFTS = [0.0, 1e-17, 1e-16, 1e-15, 1e-12, 1e-9, 1e-7, 1e-6,
          math.nextafter(1e-6, 1.0), 1.0000001e-6, 2e-6]
QUATERNION_TABLE = [
    (1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0.0), (2, 0, 0, 0),
    (1.0, 0.0, 0.0, 0.0), (-0.0, 0.0, -1.0, 0.0), (0.5, 0.5, 0.5, 0.5),
    (1.0 + 1e-7, 0.0, 0.0, 0.0), (1e200, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0),
    (math.nan, 0.0, 0.0, 0.0), (0.0, math.inf, 0.0, 0.0), (1.0, 0.0, 0.0, -math.inf),
]


def outcome(build, *args):
    """The fields of ``build(*args)`` by type and ``repr``, or the error it raised."""
    try:
        value = build(*args)
    except ValueError as err:
        return ("raised", str(err))
    return (repr(value), hash(value),
            [(type(v), repr(v)) for v in vars(value).values()])


def sampled_angles(n):
    rng = random.Random(24)
    for _ in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            yield rng.uniform(-10.0, 10.0)
        elif kind == 1:
            yield rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 300.0)
        else:
            yield rng.choice((-math.pi, math.pi)) + rng.randrange(-3, 4) * TAU \
                + rng.uniform(-1e-12, 1e-12)


def sampled_quaternions(n):
    rng = random.Random(25)
    for _ in range(n):
        c = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n2 = math.sqrt(sum(v * v for v in c))
        scale = (1.0 + rng.choice((-1.0, 1.0)) * rng.choice(DRIFTS)) / n2
        yield tuple(v * scale for v in c)


class TestOneStepConstruction:
    """Each value is built in one step with the bits of the two-step reference."""

    @pytest.mark.parametrize("angle", ANGLE_TABLE, ids=repr)
    def test_circle_table(self, angle):
        assert outcome(CircleElement, angle) == outcome(TwoStepCircle, angle)

    def test_circle_sampled(self):
        for angle in sampled_angles(100_000):
            assert outcome(CircleElement, angle) == outcome(TwoStepCircle, angle), angle

    @pytest.mark.parametrize("components", QUATERNION_TABLE, ids=repr)
    def test_unit_table(self, components):
        assert outcome(UnitQuaternion, *components) == outcome(TwoStepUnit, *components)

    @pytest.mark.parametrize("drift", DRIFTS, ids=repr)
    def test_unit_drift(self, drift):
        for components in ((1.0 + drift, 0.0, 0.0, 0.0), (0.0, 0.6, 0.0, -0.8 - drift)):
            assert (outcome(UnitQuaternion, *components)
                    == outcome(TwoStepUnit, *components))

    def test_unit_sampled(self):
        for components in sampled_quaternions(100_000):
            assert (outcome(UnitQuaternion, *components)
                    == outcome(TwoStepUnit, *components)), components

    def test_integer_components_stay_integers_without_drift(self):
        q = UnitQuaternion(1, 0, 0, 0)
        assert [type(v) for v in q.components()] == [int] * 4
        assert repr(q) == "UnitQuaternion(w=1, x=0, y=0, z=0)"

    def test_errors_keep_their_text(self):
        with pytest.raises(ValueError, match=r"^circle angle must be finite$"):
            CircleElement(math.nan)
        with pytest.raises(ValueError, match=re.escape(
                "quaternion components must be finite, got "
                "UnitQuaternion(w=1.0, x=inf, y=0.0, z=0.0)")):
            UnitQuaternion(1.0, math.inf, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"^norm 2\.0 is too far from 1 to renormalize$"):
            UnitQuaternion(2.0, 0.0, 0.0, 0.0)

    def test_fields_are_frozen(self):
        with pytest.raises(FrozenInstanceError):
            CircleElement(0.5).angle = 0.1
        with pytest.raises(FrozenInstanceError):
            UnitQuaternion(1.0, 0.0, 0.0, 0.0).w = 0.5

    def test_equality_hash_and_repr(self):
        assert repr(CircleElement(7.0)) == "CircleElement(angle=0.7168146928204138)"
        assert CircleElement(-math.pi) == CircleElement(math.pi)
        assert hash(CircleElement(-math.pi)) == hash(CircleElement(math.pi))
        assert CircleElement(0.0) == CircleElement(-0.0)
        assert CircleElement(0.1) != CircleElement(0.2)
        q = UnitQuaternion(0.5, 0.5, 0.5, 0.5)
        assert q == UnitQuaternion(0.5, 0.5, 0.5, 0.5)
        assert hash(q) == hash(Quaternion(0.5, 0.5, 0.5, 0.5))
        assert q != Quaternion(0.5, 0.5, 0.5, 0.5)
        assert repr(q) == "UnitQuaternion(w=0.5, x=0.5, y=0.5, z=0.5)"
