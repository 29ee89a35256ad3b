"""The Hamilton kernel and the Hopf operations built on it, bit for bit.

Each operation is compared with a reference that composes it from whole
quaternions, the way the operation was first written: the product and
the normalization are spelled out here, and the rest uses the public
``Quaternion`` arithmetic.  Every component is compared by ``repr``, so a
zero of the wrong sign fails.
"""

import itertools
import math

import numpy as np
import pytest

from disconn.algebra import (
    Q_I,
    Q_J,
    CircleElement,
    Quaternion,
    UnitQuaternion,
    hamilton,
)
from disconn.bundle import FIBER_ATOL, SECTION_CHART_ATOL, HopfBundle
from disconn.errors import NotSameFiber, SectionUndefined
from disconn.riemannian import (
    DOMAIN_BUFFER,
    _phase_square_sum,
    _qmul_rows,
    hopf_closed_form,
)
from disconn.rng import substream
from disconn.verify import _antipodal_partner

HOPF = HopfBundle()
N_SAMPLED = 10_000


def ref_mul(a, b):
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def ref_normalized(q):
    n = q.norm()
    return Quaternion(q.w / n, q.x / n, q.y / n, q.z / n)


def ref_project(q):
    return ref_mul(q.conj(), ref_mul(Q_I, q))


def ref_act(g, q):
    rot = Quaternion(math.cos(g.angle), math.sin(g.angle), 0.0, 0.0)
    return UnitQuaternion.from_quaternion(ref_mul(rot, q))


def ref_section_defined(r):
    return (r - Quaternion(0.0, -1.0, 0.0, 0.0)).norm() > SECTION_CHART_ATOL


def ref_local_section(r):
    s = Quaternion(-1.0, 0.0, 0.0, 0.0) + ref_mul(Q_I, r)
    return UnitQuaternion.from_quaternion(ref_normalized(s))


def ref_fiber_translation(q0, q1):
    if (ref_project(q0) - ref_project(q1)).norm() > FIBER_ATOL:
        raise NotSameFiber("reference")
    u = ref_mul(q1, q0.conj())
    return CircleElement(math.atan2(u.x, u.w))


def ref_phase_square_sum(q0, q1):
    u = ref_mul(q1, q0.conj())
    return u.w * u.w + u.x * u.x


def bits(value):
    if isinstance(value, Quaternion):
        return repr((type(value).__name__, value.components()))
    if isinstance(value, CircleElement):
        return repr(("angle", value.angle))
    return repr(value)


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except SectionUndefined:
        return "section undefined"
    except NotSameFiber:
        return "not same fiber"


def signed_basis():
    """The eight points +-1, +-i, +-j, +-k; the negative ones carry -0.0."""
    basis = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
             (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    return [UnitQuaternion(*(s * c for c in e)) for e in basis for s in (1.0, -1.0)]


def signed_pairs():
    """Points 0.6 e + 0.8 f for basis elements e != f, with every sign on
    every component, so that two of the four components are signed zeros."""
    out = []
    for e, f in itertools.permutations(range(4), 2):
        for signs in itertools.product((1.0, -1.0), repeat=4):
            c = [0.0] * 4
            c[e], c[f] = 0.6, 0.8
            out.append(UnitQuaternion(*(s * v for s, v in zip(signs, c))))
    return out


@pytest.fixture(scope="module")
def points():
    rows = np.random.default_rng(20240601).normal(size=(N_SAMPLED, 4))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return (signed_basis() + signed_pairs()
            + [UnitQuaternion(*map(float, row)) for row in rows])


@pytest.fixture(scope="module")
def angles(points):
    special = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi]
    drawn = np.random.default_rng(7).uniform(-math.pi, math.pi, len(points))
    return [CircleElement(a) for a in special + list(map(float, drawn))][:len(points)]


def assert_same(new, ref, inputs):
    for i, (a, b) in enumerate(zip(new, ref)):
        assert a == b, f"input {i} {inputs[i]!r}: {a} != {b}"


def test_product_matches_the_spelled_out_formula(points):
    pairs = list(zip(points, points[1:] + points[:1])) + [
        (a, b) for a in signed_basis() for b in signed_basis()]
    assert_same([bits(a * b) for a, b in pairs], [bits(ref_mul(a, b)) for a, b in pairs],
                pairs)
    assert_same([repr(hamilton(*a.components(), *b.components())) for a, b in pairs],
                [repr(ref_mul(a, b).components()) for a, b in pairs], pairs)


def test_row_product_matches_the_scalar_product_column_by_column(points):
    others = points[1:] + points[:1]
    a = np.array([q.components() for q in points]).T.copy()
    b = np.array([q.components() for q in others]).T.copy()
    rows = _qmul_rows(a, b)
    assert rows.shape == a.shape
    new = [repr(tuple(map(float, rows[:, n]))) for n in range(len(points))]
    ref = [repr((p * q).components()) for p, q in zip(points, others)]
    assert_same(new, ref, points)


def test_projection_and_section(points):
    bases = [ref_project(q) for q in points]
    assert_same([bits(HOPF.project(q)) for q in points], [bits(r) for r in bases], points)
    # the points themselves as base points reach -1 + i r with signed zeros
    inputs = bases + points
    assert_same([bits(HOPF.section_defined(r)) for r in inputs],
                [bits(ref_section_defined(r)) for r in inputs], inputs)
    new = [outcome(HOPF.local_section, r) for r in inputs]
    ref = [bits(ref_local_section(r)) if ref_section_defined(r) else "section undefined"
           for r in inputs]
    assert_same(new, ref, inputs)
    assert "section undefined" in ref


def test_action_distances_and_fiber_translation(points, angles):
    moved = [HOPF.act(g, q) for g, q in zip(angles, points)]
    assert_same([bits(m) for m in moved],
                [bits(ref_act(g, q)) for g, q in zip(angles, points)], points)
    others = points[1:] + points[:1]
    assert_same([bits(HOPF.distance(p, q)) for p, q in zip(points, others)],
                [bits((p - q).norm()) for p, q in zip(points, others)], points)
    assert_same(
        [bits(HOPF.base_distance(HOPF.project(p), HOPF.project(q)))
         for p, q in zip(points, others)],
        [bits((ref_project(p) - ref_project(q)).norm()) for p, q in zip(points, others)],
        points)
    pairs = list(zip(points, moved)) + list(zip(points, others))
    new = [outcome(HOPF.fiber_translation, p, q) for p, q in pairs]
    ref = [outcome(ref_fiber_translation, p, q) for p, q in pairs]
    assert_same(new, ref, pairs)
    assert "not same fiber" in ref


def test_phase_closed_form_and_antipodal_partner(points, angles):
    form = hopf_closed_form()
    pairs = list(zip(points, points[1:] + points[:1])) + [
        (a, b) for a in signed_basis() for b in signed_basis()]
    assert_same([bits(_phase_square_sum(p, q)) for p, q in pairs],
                [bits(ref_phase_square_sum(p, q)) for p, q in pairs], pairs)
    inside = [(p, q) for p, q in pairs if ref_phase_square_sum(p, q) > DOMAIN_BUFFER]
    assert len(inside) < len(pairs)
    assert_same([bits(form.evaluate(p, q)) for p, q in inside],
                [bits(CircleElement(math.atan2(ref_mul(q, p.conj()).x,
                                               ref_mul(q, p.conj()).w)))
                 for p, q in inside], inside)
    new = [bits(_antipodal_partner(HOPF, q, g)) for g, q in zip(angles, points)]
    ref = [bits(ref_act(g, UnitQuaternion.from_quaternion(ref_mul(Q_J, q))))
           for g, q in zip(angles, points)]
    assert_same(new, ref, points)


def test_sample_point_matches_its_draw():
    rng, ref_rng = substream(11, 3), substream(11, 3)
    for _ in range(N_SAMPLED):
        w, x = ref_rng.normal_pair()
        y, z = ref_rng.normal_pair()
        expected = UnitQuaternion.from_quaternion(ref_normalized(Quaternion(w, x, y, z)))
        assert bits(HOPF.sample_point(rng)) == bits(expected)
