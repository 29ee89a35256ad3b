import math

import pytest
from hypothesis import given, strategies as st

from disconn import (
    CircleElement,
    HopfBundle,
    NotSameFiber,
    Quaternion,
    SectionUndefined,
    TrivialBundle,
    UnitQuaternion,
    circle_distance,
    hopf_closed_form,
)
from disconn.rng import SplitMix64, substream

from conftest import HALF_J, I_BASE, I_POINT, J_POINT, K_BASE, ONE


class TestGeometry:
    def test_hopf_geometry_is_fixed(self):
        with pytest.raises(TypeError):
            HopfBundle(dim_total=5)
        assert HopfBundle() == HopfBundle()
        assert hash(HopfBundle()) == hash(HopfBundle())

    @pytest.mark.parametrize("bundle, dim_total, dim_base", [
        (HopfBundle(), 3, 2),
        (TrivialBundle(3), 4, 3),
    ], ids=["hopf", "trivial-r3"])
    def test_dimensions(self, bundle, dim_total, dim_base):
        assert (bundle.dim_total, bundle.dim_base, bundle.dim_group) == (dim_total, dim_base, 1)


class TestHopfProjection:
    def test_identity_projects_to_i(self, hopf):
        assert hopf.base_distance(hopf.project(ONE), I_BASE) < 1e-15

    def test_half_j_projects_to_k(self, hopf):
        # oracle: expanding (1 - j) i (1 + j) / 2 by the multiplication
        # table gives (i + k + k - i) / 2 = k
        assert hopf.base_distance(hopf.project(HALF_J), K_BASE) < 1e-15

    def test_projection_lands_on_base_sphere(self, hopf):
        rng = SplitMix64(11)
        for _ in range(200):
            r = hopf.project(hopf.sample_point(rng))
            assert abs(r.norm() - 1.0) <= 1e-9
            assert abs(r.w) <= 1e-9


class TestHopfAction:
    def test_quarter_turn_on_identity(self, hopf):
        moved = hopf.act(CircleElement(math.pi / 2.0), ONE)
        assert hopf.distance(moved, I_POINT) < 1e-15

    def test_identity_action(self, hopf):
        rng = SplitMix64(3)
        q = hopf.sample_point(rng)
        assert hopf.distance(hopf.act(CircleElement(0.0), q), q) == 0.0

    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.integers(0, 2 ** 32))
    def test_action_is_a_group_action(self, a, b, seed):
        hopf = HopfBundle()
        q = hopf.sample_point(SplitMix64(seed))
        ga, gb = CircleElement(a), CircleElement(b)
        lhs = hopf.act(ga * gb, q)
        rhs = hopf.act(ga, hopf.act(gb, q))
        assert hopf.distance(lhs, rhs) <= 1e-12


class TestFiberStructure:
    def test_fiber_preservation_bulk(self, hopf):
        for i in range(10_000):
            rng = substream(101, i)
            q = hopf.sample_point(rng)
            g = hopf.sample_group(rng)
            d = hopf.base_distance(hopf.project(hopf.act(g, q)), hopf.project(q))
            assert d <= 1e-9

    def test_translation_recovers_group_element(self, hopf):
        # the closed form is the fiber phase, so it agrees bit for bit
        closed = hopf_closed_form()
        for i in range(2_000):
            rng = substream(102, i)
            q = hopf.sample_point(rng)
            g = hopf.sample_group(rng)
            k = hopf.fiber_translation(q, hopf.act(g, q))
            assert circle_distance(k, g) <= 1e-9
            assert closed.evaluate(q, hopf.act(g, q)).angle == k.angle

    def test_identity_translation(self, hopf):
        assert hopf.fiber_translation(ONE, ONE).angle == 0.0

    def test_hopf_vertical_pair(self, hopf):
        g = hopf.fiber_translation(ONE, I_POINT)
        assert abs(g.angle - math.pi / 2.0) < 1e-15

    def test_not_same_fiber(self, hopf, line_bundle):
        # both fiber translations give one message
        a, b = line_bundle.point(0.0), line_bundle.point(2.0)
        message = r"^base points are 2\.000e\+00 apart \(allowed 1\.0e-09\)$"
        with pytest.raises(NotSameFiber, match=message):
            hopf.fiber_translation(ONE, J_POINT)
        with pytest.raises(NotSameFiber, match=message):
            line_bundle.fiber_translation(a, b)

    def test_fiber_pair_accepts_fiber_mates(self, hopf, line_bundle):
        # points on one fiber pass the check of both fiber translations
        a = line_bundle.point(0.5, CircleElement(0.2))
        assert line_bundle.fiber_translation(a, line_bundle.act(CircleElement(0.3), a)).angle \
            == pytest.approx(0.3, abs=1e-15)
        assert hopf.fiber_translation(ONE, I_POINT).angle == pytest.approx(math.pi / 2.0)


class TestSerialization:
    def test_hopf_points_restore_bit_for_bit(self, hopf):
        # a sampled point is normalized already; restoring it must not
        # renormalize it again
        rng = substream(4, 2)
        for _ in range(200):
            q = hopf.sample_point(rng)
            assert hopf.restore_point(hopf.describe_point(q)).components() == q.components()

    def test_restore_rejects_points_off_the_sphere(self, hopf):
        with pytest.raises(ValueError):
            hopf.restore_point([1.0, 1.0, 0.0, 0.0])


class TestHopfSection:
    def test_section_at_i(self, hopf):
        s = hopf.local_section(I_BASE)
        assert hopf.distance(s, UnitQuaternion(-1.0, 0.0, 0.0, 0.0)) < 1e-15
        assert hopf.base_distance(hopf.project(s), I_BASE) < 1e-15

    def test_section_at_k(self, hopf):
        s = hopf.local_section(K_BASE)
        expected = UnitQuaternion(-1.0 / math.sqrt(2.0), 0.0, -1.0 / math.sqrt(2.0), 0.0)
        assert hopf.distance(s, expected) < 1e-15
        assert hopf.base_distance(hopf.project(s), K_BASE) < 1e-15

    def test_section_undefined_at_antipode(self, hopf):
        with pytest.raises(SectionUndefined):
            hopf.local_section(Quaternion(0.0, -1.0, 0.0, 0.0))
        near = Quaternion(0.0, -1.0, 1e-8, 0.0).normalized()
        with pytest.raises(SectionUndefined):
            hopf.local_section(near)

    def test_section_property_bulk(self, hopf):
        kept = 0
        for i in range(5_000):
            rng = substream(103, i)
            r = hopf.project(hopf.sample_point(rng))
            if not hopf.section_defined(r):
                continue
            kept += 1
            assert hopf.base_distance(hopf.project(hopf.local_section(r)), r) <= 1e-9
        assert kept > 4_990

    def test_projection_invariance_restated(self, hopf):
        # project(act(g, q)) equals project(q) componentwise
        for i in range(2_000):
            rng = substream(104, i)
            q = hopf.sample_point(rng)
            g = hopf.sample_group(rng)
            a = hopf.project(hopf.act(g, q))
            b = hopf.project(q)
            for u, v in zip(a.components(), b.components()):
                assert abs(u - v) <= 1e-9


class TestTrivialBundle:
    def test_projection(self, line_bundle):
        p = line_bundle.point(0.7, CircleElement(0.2))
        assert line_bundle.project(p) == (0.7,)

    def test_action_adds_angles(self, line_bundle):
        p = line_bundle.point(1.0, CircleElement(0.1))
        moved = line_bundle.act(CircleElement(0.4), p)
        assert moved.r == (1.0,)
        assert abs(moved.g.angle - 0.5) < 1e-15

    def test_translation(self, line_bundle):
        a = line_bundle.point(2.0, CircleElement(0.1))
        b = line_bundle.point(2.0, CircleElement(0.7))
        assert abs(line_bundle.fiber_translation(a, b).angle - 0.6) < 1e-15

    def test_translation_rejects_other_fiber(self, line_bundle):
        a = line_bundle.point(0.0)
        b = line_bundle.point(1.0)
        with pytest.raises(NotSameFiber):
            line_bundle.fiber_translation(a, b)

    def test_section(self, line_bundle):
        s = line_bundle.local_section((0.3,))
        assert s.r == (0.3,) and s.g.angle == 0.0
        assert line_bundle.section_defined((0.3,))

    def test_point_validates_dimension(self, line_bundle, plane_bundle):
        # the section parses its coordinates as point does, so it checks as well
        for build in (plane_bundle.point, plane_bundle.local_section):
            with pytest.raises(ValueError):
                build((1.0,))
        for build in (line_bundle.point, line_bundle.local_section):
            with pytest.raises(ValueError):
                build((0.3, 0.4))

    def test_embed_difference_unwraps_angle(self, line_bundle):
        a = line_bundle.point(1.0, CircleElement(math.pi - 0.05))
        b = line_bundle.point(1.5, CircleElement(-math.pi + 0.05))
        d = line_bundle.embed_difference(b, a)
        assert d[0] == 0.5
        assert abs(d[-1] - 0.1) < 1e-12

    def test_fiber_preservation_bulk(self, plane_bundle):
        for i in range(5_000):
            rng = substream(105, i)
            q = plane_bundle.sample_point(rng)
            g = plane_bundle.sample_group(rng)
            assert plane_bundle.base_distance(
                plane_bundle.project(plane_bundle.act(g, q)),
                plane_bundle.project(q)) == 0.0
