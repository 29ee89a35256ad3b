import math

import numpy as np
import pytest

from disconn import (
    AntipodalPoints,
    CircleElement,
    InvalidConfig,
    OutOfDomain,
    OutOfRange,
    Quaternion,
    TangentVector,
    UnitQuaternion,
    base_geodesic,
    beta_formula,
    circle_distance,
    continuous_connection_form,
    hopf_closed_form,
    horizontal_lift_path,
    infinitesimal_generator,
    lift_from_form,
    lmw_form,
    riemannian_form,
)
from disconn.riemannian import _conj_rows, _project_rows, _qmul_rows, _stage_rows
from disconn.rng import substream

from conftest import HALF_J, I_BASE, I_POINT, J_POINT, K_BASE, ONE

#: value of the counterexample phase at pi/8, frozen from an independent
#: scalar evaluation of the formula (cross-checked by a high-precision
#: adaptive integration of the construction, agreement 4e-9)
BETA_AT_PI_8 = 0.30697156278446847


def hopf():
    from disconn import HopfBundle
    return HopfBundle()


class TestInfinitesimalGenerator:
    def test_unit_speed_at_identity(self):
        v = infinitesimal_generator(1.0, ONE)
        assert (v.vec - Quaternion(0, 1, 0, 0)).norm() < 1e-15

    def test_zero(self):
        v = infinitesimal_generator(0.0, ONE)
        assert v.vec.norm() == 0.0

    def test_scaling_at_j(self):
        v = infinitesimal_generator(2.0, J_POINT)
        assert (v.vec - Quaternion(0, 0, 0, 2)).norm() < 1e-15


class TestContinuousConnection:
    def test_pure_vertical(self):
        split = continuous_connection_form(TangentVector(ONE, Quaternion(0, 1, 0, 0)))
        assert abs(split.xi - 1.0) < 1e-15
        assert split.horizontal.vec.norm() < 1e-15

    def test_pure_horizontal(self):
        split = continuous_connection_form(TangentVector(ONE, Quaternion(0, 0, 1, 0)))
        assert split.xi == 0.0
        assert (split.horizontal.vec - Quaternion(0, 0, 1, 0)).norm() < 1e-15

    def test_linearity_of_split(self):
        split = continuous_connection_form(TangentVector(ONE, Quaternion(0, 1, 1, 0)))
        assert abs(split.xi - 1.0) < 1e-15
        assert (split.horizontal.vec - Quaternion(0, 0, 1, 0)).norm() < 1e-15

    def test_tangency_enforced(self):
        with pytest.raises(ValueError):
            TangentVector(ONE, Quaternion(1, 0, 0, 0))

    def test_projection_kernel_contains_vertical(self):
        # conj(h) i q + conj(q) i h vanishes for h = i q at every sampled q
        b = hopf()
        for i in range(200):
            q = b.sample_point(substream(71, i))
            h = Quaternion(0, 1, 0, 0) * q
            val = h.conj() * (Quaternion(0, 1, 0, 0) * q) \
                + q.conj() * (Quaternion(0, 1, 0, 0) * h)
            assert val.norm() <= 1e-9


class TestBaseGeodesic:
    def test_constant_path(self):
        seg = base_geodesic(I_BASE, I_BASE)
        assert seg.length == 0.0
        for t in (0.0, 0.3, 1.0):
            assert (seg.evaluator(t) - I_BASE).norm() < 1e-15

    def test_midpoint_example(self):
        seg = base_geodesic(I_BASE, K_BASE)
        mid = seg.evaluator(0.5)
        s = 1.0 / math.sqrt(2.0)
        assert (mid - Quaternion(0.0, s, 0.0, s)).norm() < 1e-15

    def test_endpoints_and_length(self):
        b = hopf()
        for i in range(100):
            rng = substream(72, i)
            r0 = b.project(b.sample_point(rng))
            r1 = b.project(b.sample_point(rng))
            if r0.dot(r1) <= -1.0 + 1e-6:
                continue
            seg = base_geodesic(r0, r1)
            assert (seg.evaluator(0.0) - r0).norm() <= 1e-9
            assert (seg.evaluator(1.0) - r1).norm() <= 1e-9
            assert abs(seg.length - math.acos(max(-1.0, min(1.0, r0.dot(r1))))) <= 1e-12

    def test_constant_speed(self):
        seg = base_geodesic(I_BASE, K_BASE)
        speeds = [seg.velocity(t).vec.norm() for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for s in speeds:
            assert abs(s - seg.length) <= 1e-9 * max(1.0, seg.length)

    def test_antipodal_rejected(self):
        with pytest.raises(AntipodalPoints):
            base_geodesic(I_BASE, Quaternion(0.0, -1.0, 0.0, 0.0))


def _stage_inputs(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    q = scale * q / np.linalg.norm(q, axis=1, keepdims=True)
    return q, rng.normal(size=(n, 3))


class TestClosedFormStage:
    @pytest.mark.parametrize("scale", [1.0, 0.7, 1.3])
    def test_tangent_horizontal_and_base_matching(self, scale):
        q, v = _stage_inputs(200, 3, scale)
        h = _stage_rows(q, v)
        i_rows = np.tile([0.0, 1.0, 0.0, 0.0], (len(q), 1))
        iq = _qmul_rows(i_rows, q)
        assert np.abs(np.sum(h * q, axis=1)).max() <= 1e-14
        assert np.abs(np.sum(h * iq, axis=1)).max() <= 1e-14
        # d(project)(q)[h] = Im(conj(h) i q + conj(q) i h) = v - r <r, v>
        dpi = (_qmul_rows(_conj_rows(h), iq)
               + _qmul_rows(_conj_rows(q), _qmul_rows(i_rows, h)))[:, 1:]
        r = _project_rows(q) / np.sum(q * q, axis=1, keepdims=True)
        expected = v - r * np.sum(r * v, axis=1, keepdims=True)
        assert np.abs(dpi - expected).max() <= 1e-13

    def test_row_does_not_depend_on_batch_size(self):
        q, v = _stage_inputs(64, 4, 1.1)
        batch = _stage_rows(q, v)
        for k in range(64):
            assert np.array_equal(_stage_rows(q[k:k + 1], v[k:k + 1])[0], batch[k])

    def test_non_finite_stage_raises(self):
        from disconn import SolveFailed
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(SolveFailed):
                _stage_rows(np.zeros((1, 4)), np.ones((1, 3)))


class TestHorizontalLift:
    def test_constant_path_fixes_point(self):
        seg = base_geodesic(I_BASE, I_BASE)
        res = horizontal_lift_path(seg, ONE, 16)
        assert hopf().distance(res.endpoint, ONE) < 1e-15

    def test_reference_lift(self):
        seg = base_geodesic(I_BASE, K_BASE)
        res = horizontal_lift_path(seg, ONE, 256)
        assert hopf().distance(res.endpoint, HALF_J) <= 1e-6

    def test_equivariance(self):
        b = hopf()
        g = CircleElement(0.7)
        seg = base_geodesic(I_BASE, K_BASE)
        moved = horizontal_lift_path(seg, b.act(g, ONE), 256)
        plain = horizontal_lift_path(seg, ONE, 256)
        assert b.distance(moved.endpoint, b.act(g, plain.endpoint)) <= 1e-6

    def test_trajectory_horizontality_and_tracking(self):
        b = hopf()
        seg = base_geodesic(I_BASE, K_BASE)
        res = horizontal_lift_path(seg, ONE, 64, store_path=True)
        assert res.steps == 64
        assert len(res.trajectory) == 65
        for v in res.velocity_samples:
            split = continuous_connection_form(v)
            assert abs(split.xi) <= 1e-6
        for t, point in res.trajectory:
            assert b.base_distance(b.project(point), seg.evaluator(t)) <= 1e-6

    def test_wrong_start_rejected(self):
        seg = base_geodesic(K_BASE, I_BASE)
        with pytest.raises(ValueError):
            horizontal_lift_path(seg, ONE, 8)

    def test_convergence_order(self):
        b = hopf()
        closed = hopf_closed_form()
        closed_lift = lift_from_form(closed)
        pairs = []
        i = 0
        while len(pairs) < 5:
            rng = substream(73, i)
            i += 1
            q0 = b.sample_point(rng)
            q1 = b.sample_point(rng)
            if not closed.in_domain(q0, q1):
                continue
            arc = math.acos(max(-1.0, min(1.0,
                  b.project(q0).dot(b.project(q1)))))
            if 1.0 <= arc <= 2.8 and b.section_defined(b.project(q1)):
                pairs.append((q0, q1))
        for q0, q1 in pairs:
            target = closed_lift.lift(q0, b.project(q1))
            seg = base_geodesic(b.project(q0), b.project(q1))
            errs = [b.distance(horizontal_lift_path(seg, q0, n).endpoint, target)
                    for n in (32, 64, 128, 256)]
            for coarse, fine in zip(errs, errs[1:]):
                assert coarse / fine >= 8.0, f"ratios {errs}"


class TestGeodesicForm:
    def test_horizontal_reference_pair(self):
        form = riemannian_form(256)
        assert abs(form.evaluate(ONE, HALF_J).angle) <= 1e-6

    def test_vertical_pair(self):
        form = riemannian_form(64)
        assert circle_distance(form.evaluate(ONE, I_POINT),
                               CircleElement(math.pi / 2.0)) <= 1e-6

    def test_domain_rejection(self):
        form = riemannian_form(64)
        assert not form.in_domain(ONE, J_POINT)
        with pytest.raises(OutOfDomain):
            form.evaluate(ONE, J_POINT)

    def test_single_and_batch_paths_agree(self):
        b = hopf()
        form = riemannian_form(64)
        pairs = []
        for i in range(20):
            rng = substream(74, i)
            q0, q1 = b.sample_point(rng), b.sample_point(rng)
            if form.in_domain(q0, q1):
                pairs.append((q0, q1))
        batch = form.evaluate_many(pairs)
        # a single pair is a batch of one, so it gives the same bits
        for (q0, q1), g in zip(pairs, batch):
            assert form.evaluate(q0, q1).angle == g.angle

    @pytest.mark.parametrize("factory", [riemannian_form, lmw_form])
    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_below_one_rejected(self, factory, steps):
        with pytest.raises(InvalidConfig):
            factory(steps)

    def test_equivariance_invariant(self):
        b = hopf()
        form = riemannian_form(256)
        base_pairs, moved_pairs, groups = [], [], []
        for i in range(1000):
            rng = substream(75, i)
            while True:
                q0, q1 = b.sample_point(rng), b.sample_point(rng)
                if form.in_domain(q0, q1):
                    break
            g0, g1 = b.sample_group(rng), b.sample_group(rng)
            base_pairs.append((q0, q1))
            moved_pairs.append((b.act(g0, q0), b.act(g1, q1)))
            groups.append((g0, g1))
        base = form.evaluate_many(base_pairs)
        moved = form.evaluate_many(moved_pairs)
        for a, m, (g0, g1) in zip(base, moved, groups):
            expected = b.group_compose(b.group_compose(g1, a), b.group_inverse(g0))
            assert b.group_distance(m, expected) <= 1e-6


class TestVariantForm:
    def test_theta_zero_is_horizontal(self):
        form = lmw_form(256)
        assert abs(form.evaluate(ONE, HALF_J).angle) <= 1e-6

    def test_witness_value_matches_formula(self):
        b = hopf()
        form = lmw_form(256)
        q1 = b.act(CircleElement(math.pi / 8.0), HALF_J)
        angle = form.evaluate(ONE, q1).angle
        assert abs(angle - beta_formula(math.pi / 8.0)) <= 1e-4
        assert abs(angle - BETA_AT_PI_8) <= 1e-4

    def test_same_fiber_pairs_reduce_to_translation(self):
        b = hopf()
        form = lmw_form(128)
        g = CircleElement(0.8)
        val = form.evaluate(HALF_J, b.act(g, HALF_J))
        assert circle_distance(val, g) <= 1e-9

    def test_equivariance_violation_at_witness(self):
        b = hopf()
        form = lmw_form(256)
        theta = CircleElement(math.pi / 8.0)
        base = form.evaluate(ONE, HALF_J)
        moved = form.evaluate(ONE, b.act(theta, HALF_J))
        violation = circle_distance(moved, b.group_compose(theta, base))
        assert violation > 0.05
        assert abs(violation - abs(math.pi / 8.0 - BETA_AT_PI_8)) <= 1e-4

    def test_antipodal_rejected(self):
        form = lmw_form(32)
        minus_one = UnitQuaternion(-1.0, 0.0, 0.0, 0.0)
        assert not form.in_domain(ONE, minus_one)
        with pytest.raises(AntipodalPoints):
            form.evaluate(ONE, minus_one)
        # the properness witness stays inside this variant's domain,
        # one more way it fails to be a connection form
        assert form.in_domain(ONE, J_POINT)
        assert form.flagged_non_connection


class TestBetaFormula:
    def test_zero(self):
        assert beta_formula(0.0) == 0.0

    def test_frozen_value(self):
        assert abs(beta_formula(math.pi / 8.0) - BETA_AT_PI_8) <= 1e-12

    def test_derivative_at_zero(self):
        h = 1e-5
        d = (beta_formula(h) - beta_formula(-h)) / (2.0 * h)
        assert abs(d - math.pi / 4.0) <= 1e-6

    @pytest.mark.parametrize("theta", [math.pi / 4.0, -math.pi / 4.0, 1.0, -2.0])
    def test_out_of_range(self, theta):
        with pytest.raises(OutOfRange):
            beta_formula(theta)
