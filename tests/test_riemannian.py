import math

import numpy as np
import pytest

from disconn import (
    AntipodalPoints,
    CircleElement,
    InvalidConfig,
    OutOfDomain,
    OutOfRange,
    Q_I,
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
from disconn.riemannian import (
    _conj_rows,
    _integrate_rows,
    _project_rows,
    _qmul_rows,
    _stage_rows,
)
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
    """Random (4, n) quaternions of norm ``scale`` and (3, n) base velocities."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    q = scale * q / np.linalg.norm(q, axis=1, keepdims=True)
    return q.T.copy(), rng.normal(size=(n, 3)).T.copy()


def _stage_scalar(q, v):
    """h = q (v x r) / (2 |q|^2) for one quaternion, one float operation at a time."""
    w, x, y, z = q
    v0, v1, v2 = v
    norm2 = w * w + x * x + y * y + z * z
    r0 = (w * w + x * x - y * y - z * z) / norm2
    r1 = 2.0 * (x * y - w * z) / norm2
    r2 = 2.0 * (w * y + x * z) / norm2
    half = 0.5 / norm2
    u0 = (v1 * r2 - v2 * r1) * half
    u1 = (v2 * r0 - v0 * r2) * half
    u2 = (v0 * r1 - v1 * r0) * half
    return [-(x * u0 + y * u1 + z * u2),
            w * u0 + y * u2 - z * u1,
            w * u1 - x * u2 + z * u0,
            w * u2 + x * u1 - y * u0]


class TestClosedFormStage:
    @pytest.mark.parametrize("scale", [1.0, 0.7, 1.3])
    def test_tangent_horizontal_and_base_matching(self, scale):
        q, v = _stage_inputs(200, 3, scale)
        h = _stage_rows(q, v)
        i_cols = np.tile([[0.0], [1.0], [0.0], [0.0]], (1, q.shape[1]))
        iq = _qmul_rows(i_cols, q)
        assert np.abs(np.sum(h * q, axis=0)).max() <= 1e-14
        assert np.abs(np.sum(h * iq, axis=0)).max() <= 1e-14
        # d(project)(q)[h] = Im(conj(h) i q + conj(q) i h) = v - r <r, v>
        dpi = (_qmul_rows(_conj_rows(h), iq)
               + _qmul_rows(_conj_rows(q), _qmul_rows(i_cols, h)))[1:]
        r = _project_rows(q) / np.sum(q * q, axis=0)
        expected = v - r * np.sum(r * v, axis=0)
        assert np.abs(dpi - expected).max() <= 1e-13

    @pytest.mark.parametrize("scale", [1.0, 0.7, 1.3])
    def test_matches_the_scalar_transcription_bit_for_bit(self, scale):
        q, v = _stage_inputs(1000, 8, scale)
        expected = [_stage_scalar(qk, vk) for qk, vk in zip(q.T.tolist(), v.T.tolist())]
        assert _stage_rows(q, v).T.tolist() == expected

    def test_row_does_not_depend_on_batch_size(self):
        q, v = _stage_inputs(64, 4, 1.1)
        batch = _stage_rows(q, v)
        for k in range(64):
            assert np.array_equal(_stage_rows(q[:, k:k + 1], v[:, k:k + 1])[:, 0], batch[:, k])

    def test_non_finite_stage_raises(self):
        from disconn import SolveFailed
        with np.errstate(divide="ignore", invalid="ignore"):
            assert not np.isfinite(_stage_rows(np.zeros((4, 1)), np.ones((3, 1)))).any()
            with pytest.raises(SolveFailed, match="non-finite stage velocity"):
                list(_integrate_rows(np.zeros((4, 1)), lambda t: np.ones((3, 1)), 4))


class TestProjectionRows:
    def test_bilinear_form_is_the_projection_derivative(self):
        q, _ = _stage_inputs(200, 5)
        w = np.random.default_rng(6).normal(size=(200, 4)).T.copy()
        w -= q * np.sum(q * w, axis=0)
        eps = 1e-3
        central = (_project_rows(q + eps * w) - _project_rows(q - eps * w)) / (2.0 * eps)
        derivative = 2.0 * _project_rows(q, w)
        assert np.abs(derivative - central).max() <= 1e-10
        # a velocity tangent to the total sphere projects to one tangent to the base
        assert np.abs(np.sum(derivative * _project_rows(q), axis=0)).max() <= 1e-13
        assert np.array_equal(_project_rows(q, w), _project_rows(w, q))
        # the base point keeps the bits of the product written out
        w0, x, y, z = q
        assert np.array_equal(_project_rows(q), np.stack(
            [w0 * w0 + x * x - y * y - z * z, 2.0 * (x * y - w0 * z),
             2.0 * (w0 * y + x * z)]))


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
        res = horizontal_lift_path(seg, ONE, 64)
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

    @pytest.mark.parametrize("factory", [riemannian_form, lmw_form])
    def test_single_and_batch_paths_agree(self, factory):
        b = hopf()
        form = factory(64)
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
    def test_mixed_batch_with_chord_rows_matches_batches_of_one(self, factory):
        # (q, q) and same-fiber pairs (q, g q) give arcs with sin(omega) below
        # 1e-9, which follow the chord; ordinary pairs sit between them
        b = hopf()
        form = factory(16)
        pairs = []
        for i in range(30):
            rng = substream(78, i)
            q, q1 = b.sample_point(rng), b.sample_point(rng)
            pairs += [(q, q), (q, b.act(b.sample_group(rng), q)), (q, q1)]
        pairs = [p for p in pairs if form.in_domain(*p)]
        ends = [np.array([p[k].components() for p in pairs]).T for k in (0, 1)]
        if factory is riemannian_form:
            ends = [_project_rows(e) for e in ends]
        dot = np.clip(np.sum(ends[0] * ends[1], axis=0), -1.0, 1.0)
        assert np.count_nonzero(np.sin(np.arccos(dot)) < 1e-9) >= 20
        batch = form.evaluate_many(pairs)
        assert len(batch) == len(pairs) >= 80
        for (q0, q1), g in zip(pairs, batch):
            assert form.evaluate(q0, q1).angle == g.angle

    @pytest.mark.parametrize("factory", [riemannian_form, lmw_form])
    def test_empty_batch(self, factory):
        assert factory(8).evaluate_many([]) == []

    @pytest.mark.parametrize("factory", [riemannian_form, lmw_form])
    def test_domain_is_where_the_form_evaluates(self, factory):
        # q1 = u q0 approaches the edge of the form's arc log-uniformly in e:
        # for the geodesic form e = u.w^2 + u.x^2 (base inner product
        # 2 e - 1), for the variant e = 1 + <q0, q1>
        b = hopf()
        form = factory(32)
        inside, outside = [], []
        for i in range(200):
            rng = substream(79, i)
            e = 10.0 ** rng.uniform_in(-13.0, 0.0)
            q0 = b.sample_point(rng)
            if factory is riemannian_form:
                phi, psi = rng.angle(), rng.angle()
                c, d = math.sqrt(e), math.sqrt(1.0 - e)
                u = Quaternion(c * math.cos(phi), c * math.sin(phi),
                               d * math.cos(psi), d * math.sin(psi))
            else:
                axis = b.project(b.sample_point(rng))
                u = Quaternion(e - 1.0, 0.0, 0.0, 0.0) + math.sqrt(e * (2.0 - e)) * axis
            q1 = UnitQuaternion.from_quaternion(u * q0)
            (inside if form.in_domain(q0, q1) else outside).append((q0, q1))
        assert inside and outside
        # every admitted pair evaluates, each as in a batch of one
        assert len(form.evaluate_many(inside)) == len(inside)
        for q0, q1 in outside:
            with pytest.raises(AntipodalPoints):
                form.evaluate(q0, q1)

    def test_integer_anchor_gives_the_float_anchor_bits(self):
        # rows built from integer components must not keep an integer dtype
        b = hopf()
        target = b.act(CircleElement(0.3), HALF_J)
        seg = base_geodesic(b.project(ONE), b.project(target))
        results = []
        for anchor in (UnitQuaternion(1, 0, 0, 0), ONE):
            end = horizontal_lift_path(seg, anchor, 256).endpoint
            results.append((riemannian_form(256).evaluate(anchor, target).angle,
                            lmw_form(256).evaluate(anchor, target).angle,
                            end.components()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("factory", [
        riemannian_form,
        lmw_form,
        pytest.param(lambda steps: horizontal_lift_path(base_geodesic(I_BASE, K_BASE), ONE, steps),
                     id="horizontal_lift_path"),
    ])
    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_below_one_rejected(self, factory, steps):
        with pytest.raises(InvalidConfig):
            factory(steps)

    def test_phase_does_not_depend_on_the_step_count(self):
        # at 8 steps the endpoint strays off the target fiber, yet the
        # translated phase equals the closed form's to roundoff
        b = hopf()
        form, closed = riemannian_form(8), hopf_closed_form()
        pairs = []
        for i in range(2000):
            rng = substream(80, i)
            while True:
                q0, q1 = b.sample_point(rng), b.sample_point(rng)
                if form.in_domain(q0, q1):
                    break
            pairs.append((q0, q1))
        gaps = [circle_distance(g, h) for g, h in
                zip(form.evaluate_many(pairs), closed.evaluate_many(pairs))]
        assert max(gaps) <= 1e-14

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

    def test_fourth_order_convergence(self):
        b = hopf()
        q1 = b.act(CircleElement(math.pi / 8.0), HALF_J)
        gaps = {n: abs(lmw_form(n).evaluate(ONE, q1).angle - beta_formula(math.pi / 8.0))
                for n in (32, 64, 256)}
        assert 12.0 <= gaps[32] / gaps[64] <= 20.0, gaps
        assert gaps[256] <= 1e-10

    def test_matches_closed_form_on_general_pairs(self):
        # the projected total-space arc lifts to a phase of
        # psi = (omega / sin omega) <i q0, q1>, omega = arccos <q0, q1>,
        # which is beta_formula on the witness family
        b = hopf()
        form = lmw_form(256)
        pairs = []
        i = 0
        while len(pairs) < 200:
            rng = substream(76, i)
            i += 1
            q0, q1 = b.sample_point(rng), b.sample_point(rng)
            if form.in_domain(q0, q1):
                pairs.append((q0, q1))
        for (q0, q1), g in zip(pairs, form.evaluate_many(pairs)):
            omega = math.acos(max(-1.0, min(1.0, q0.dot(q1))))
            psi = (omega / math.sin(omega)) * (Q_I * q0).dot(q1)
            assert circle_distance(g, CircleElement(psi)) <= 1e-8

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
