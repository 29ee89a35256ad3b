import itertools
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
    SolveFailed,
    UnitQuaternion,
    base_geodesic,
    beta_formula,
    circle_distance,
    hopf_closed_form,
    horizontal_lift_path,
    lift_from_form,
    lmw_form,
    riemannian_form,
)
from disconn.algebra import hamilton
from disconn.riemannian import (
    FIELD_BLOCK,
    _arc_rows,
    _base_arc_velocity,
    _batch_kernels,
    _integrate_rows,
    _project_rows,
    _stage_rows,
)
from disconn.rng import substream

from conftest import HALF_J, I_BASE, I_POINT, J_POINT, K_BASE, ONE


def _qmul_rows(a, b):
    return np.array(hamilton(*a, *b))


def _conj_rows(a):
    return a * np.array([[1.0], [-1.0], [-1.0], [-1.0]])

#: value of the counterexample phase at pi/8, frozen from an independent
#: scalar evaluation of the formula (cross-checked by a high-precision
#: adaptive integration of the construction, agreement 4e-9)
BETA_AT_PI_8 = 0.30697156278446847


def hopf():
    from disconn import HopfBundle
    return HopfBundle()


#: step of the central differences below
EPS = 1e-6


def orbit_velocity(q, xi):
    """Central difference of t -> act(exp(i xi t), q) at t = 0."""
    b = hopf()
    plus, minus = b.act(CircleElement(xi * EPS), q), b.act(CircleElement(-xi * EPS), q)
    return (0.5 / EPS) * (plus - minus)


def closed_form_rate(q, v):
    """Central difference of t -> A(q, q + t v), renormalized, at t = 0, for the
    closed form A; for v tangent at q it is the continuous connection form <v, i q>."""
    closed = hopf_closed_form()
    plus, minus = (UnitQuaternion.from_quaternion((q + t * v).normalized())
                   for t in (EPS, -EPS))
    return (closed.evaluate(q, plus).angle - closed.evaluate(q, minus).angle) / (2.0 * EPS)


class TestInfinitesimalGenerator:
    # the circle action's velocity through q is xi (i q)
    def test_unit_speed_at_identity(self):
        assert (orbit_velocity(ONE, 1.0) - Q_I * ONE).norm() < 1e-9

    def test_zero(self):
        assert hopf().act(CircleElement(0.0), J_POINT) == J_POINT
        assert orbit_velocity(J_POINT, 0.0).norm() == 0.0

    def test_scaling_at_j(self):
        assert (orbit_velocity(J_POINT, 2.0) - Quaternion(0, 0, 0, 2)).norm() < 1e-9


class TestContinuousConnection:
    # the closed form's derivative along a tangent v at q is <v, i q>
    def test_pure_vertical(self):
        assert abs(closed_form_rate(ONE, Q_I * ONE) - 1.0) < 1e-9

    def test_pure_horizontal(self):
        assert closed_form_rate(ONE, Quaternion(0, 0, 1, 0)) == 0.0

    def test_linearity_of_split(self):
        b = hopf()
        for i in range(50):
            rng = substream(74, i)
            q = b.sample_point(rng)
            u, w = (p - p.dot(q) * q for p in (b.sample_point(rng), b.sample_point(rng)))
            rate = closed_form_rate(q, u + w)
            assert abs(rate - (Q_I * q).dot(u + w)) <= 1e-8
            assert abs(rate - closed_form_rate(q, u) - closed_form_rate(q, w)) <= 1e-8

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
        speeds = [seg.velocity(t).norm() for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for s in speeds:
            assert abs(s - seg.length) <= 1e-9 * max(1.0, seg.length)

    def test_antipodal_rejected(self):
        with pytest.raises(AntipodalPoints):
            base_geodesic(I_BASE, Quaternion(0.0, -1.0, 0.0, 0.0))


def _stage_inputs(n, seed, scale=1.0, zeros=False):
    """Random (4, n) quaternions of norm ``scale`` and (3, n) base velocities,
    with exact and negative zeros among the components when ``zeros``."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    v = rng.normal(size=(n, 3))
    if zeros:
        q[rng.random(q.shape) < 0.2] = 0.0
        q[rng.random(q.shape) < 0.2] = -0.0
        q[:, 0] = np.where(np.abs(q).sum(axis=1) == 0.0, 1.0, q[:, 0])
        v[rng.random(v.shape) < 0.2] = -0.0
        v[rng.random(v.shape) < 0.2] = 0.0
    q = scale * q / np.linalg.norm(q, axis=1, keepdims=True)
    return q.T.copy(), v.T.copy()


def _batch_stage(q, v):
    """One stage velocity from the batch carrier's kernel, as a new (4, n) array."""
    stage, _, _ = _batch_kernels(q.shape[1])
    return stage(q, v).copy()


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
        h = _batch_stage(q, v)
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
        # bytes, so that a -0.0 where the floats give 0.0 counts
        for width in (2, 3, 1000):
            q, v = _stage_inputs(width, 8 + width, scale, zeros=True)
            expected = [_stage_scalar(qk, vk) for qk, vk in zip(q.T.tolist(), v.T.tolist())]
            assert _batch_stage(q, v).tobytes() == np.array(expected).T.tobytes()
            assert [_stage_rows(qk, vk)
                    for qk, vk in zip(q.T.tolist(), v.T.tolist())] == expected
        signed = np.signbit(q) & (q == 0.0), ~np.signbit(q) & (q == 0.0)
        assert all(zeros.any() for zeros in signed)

    def test_row_does_not_depend_on_batch_size(self):
        q, v = _stage_inputs(64, 4, 1.1, zeros=True)
        batch = _batch_stage(q, v)
        for k in range(64):
            single = np.array(_stage_rows(q[:, k].tolist(), v[:, k].tolist()))
            assert single.tobytes() == batch[:, k].tobytes()
        # the integrator runs one column on floats and a batch on rows; each
        # column of a batch of lifts gives the same bits either way, along
        # arcs and along chords (equal or nearly equal base points)
        b, steps = hopf(), 16
        starts, others = ([UnitQuaternion(*c) for c in _stage_inputs(64, seed)[0].T.tolist()]
                          for seed in (9, 10))
        ends = [b.project(p) for p in others]
        ends[:8] = [b.project(p) for p in starts[:8]]
        ends[8:16] = [b.project(b.act(CircleElement(1e-12), p)) for p in starts[8:16]]
        base = [b.rows_of("base", [b.project(p) for p in starts]), b.rows_of("base", ends)]
        velocity = _arc_rows(*base)[1]
        batch = list(_integrate_rows(b.rows_of("point", starts), lambda t: velocity(t)[:, 1:],
                                     steps))
        for k, start in enumerate(starts):
            column = _arc_rows(*(r[:, k:k + 1] for r in base))[1]
            single = _integrate_rows(b.rows_of("point", [start]),
                                     lambda t: column(t)[:, 1:], steps)
            for (t, end, k1), (t_batch, end_batch, k1_batch) in zip(single, batch, strict=True):
                assert t == t_batch
                assert np.array(end).tobytes() == end_batch[:, k].tobytes()
                assert np.array(k1).tobytes() == k1_batch[:, k].tobytes()
            lift = horizontal_lift_path(base_geodesic(b.project(start), ends[k]), start, steps)
            assert lift.trajectory[1:] == [(t, UnitQuaternion(*end[:, k].tolist()))
                                           for t, end, _ in batch]

    @pytest.mark.parametrize("columns", [2, 3, 1000])
    def test_yielded_states_are_new_arrays(self, columns):
        # callers keep every yielded state and first-stage velocity
        q0, q1 = (_stage_inputs(columns, seed)[0] for seed in (11, 12))
        states = list(_integrate_rows(q0, _base_arc_velocity(q0, q1), 6))
        arrays = [q0] + [a for _, q, k1 in states for a in (q, k1)]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))

    @pytest.mark.parametrize("columns", [1, 2])
    def test_non_finite_stage_raises(self, columns):
        # floats raise ZeroDivisionError where rows give inf; both carriers
        # report a zero start and a NaN velocity alike
        start = np.tile([[1.0], [0.0], [0.0], [0.0]], (1, columns))
        with np.errstate(divide="ignore", invalid="ignore"):
            assert not np.isfinite(_batch_stage(np.zeros((4, 2)), np.ones((3, 2)))).any()
            with pytest.raises(ZeroDivisionError):
                _stage_rows([0.0] * 4, [1.0] * 3)
            with pytest.raises(SolveFailed, match="non-finite stage velocity"):
                list(_integrate_rows(np.zeros((4, columns)),
                                     lambda t: np.ones((len(t), 3, columns)), 4))
            with pytest.raises(SolveFailed, match="non-finite stage velocity"):
                list(_integrate_rows(start, lambda t: np.full((len(t), 3, columns), np.nan), 4))


def _geodesic_pairs(n, seed):
    """(4, n) start and end points whose base points are 0.1 to 2.8 apart, the
    unit normals of their base arcs, and the arc lengths omega."""
    rng = np.random.default_rng(seed)
    q0, q1 = (q / np.linalg.norm(q, axis=0) for q in rng.normal(size=(2, 4, 4 * n)))
    r0, r1 = _project_rows(q0), _project_rows(q1)
    omega = np.arccos(np.clip(np.sum(r0 * r1, axis=0), -1.0, 1.0))
    keep = np.flatnonzero((omega > 0.1) & (omega < 2.8))[:n]
    normal = np.cross(r0[:, keep], r1[:, keep], axis=0)
    return q0[:, keep], q1[:, keep], normal / np.linalg.norm(normal, axis=0), omega[keep]


class TestHorizontalPlane:
    """Every Runge-Kutta state of a geodesic lift lies in P = q0 span(1, n): it
    is q0 exp(-theta n / 2), and theta_N - omega is the only integration error."""

    @pytest.mark.parametrize("columns", [1, 1000])
    def test_states_stay_in_the_plane_and_err_along_track_only(self, columns):
        q0, q1, normal, omega = _geodesic_pairs(columns, 21)
        assert q0.shape[1] == columns
        errors = {}
        for steps in (1, 4, 8, 16, 32, 64, 256):
            for _, q, _ in _integrate_rows(q0, _base_arc_velocity(q0, q1), steps):
                # c = conj(q0) q is cos(theta / 2) - sin(theta / 2) n in P
                c = _qmul_rows(_conj_rows(q0), np.reshape(q, q0.shape))
                off_plane = np.linalg.norm(np.cross(c[1:], normal, axis=0), axis=0)
                assert off_plane.max() <= 1e-13, (steps, off_plane.max())
            theta = 2.0 * np.arctan2(-np.sum(c[1:] * normal, axis=0), c[0])
            errors[steps] = np.abs(theta - omega).max()
        for steps in (8, 16, 32):
            assert 15.0 <= errors[steps] / errors[2 * steps] <= 17.0, errors


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
        # each step's first-stage velocity k1 has no vertical part <k1, i q>
        # at the state q the step starts from
        def velocity(t):
            return np.array([seg.velocity(s).components()[1:] for s in t]).reshape(-1, 3, 1)

        q = [1.0, 0.0, 0.0, 0.0]
        for _, end, k1 in _integrate_rows(np.array(q).reshape(4, 1), velocity, 64):
            assert abs((Q_I * Quaternion(*q)).dot(Quaternion(*k1))) <= 1e-6
            q = end
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


def _evaluates(form, q0, q1):
    """Whether the pair's integrated endpoint lands within the fiber guard."""
    try:
        form.evaluate(q0, q1)
    except SolveFailed:
        return False
    return True


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

    @pytest.mark.parametrize("factory, steps", [
        pytest.param(riemannian_form, 64, id="riemannian_form"),
        pytest.param(lmw_form, 64, id="lmw_form"),
        # few steps, where endpoints stray far from the exact lift
        pytest.param(riemannian_form, 4, id="riemannian_form-4"),
        pytest.param(lmw_form, 8, id="lmw_form-8")])
    def test_single_and_batch_paths_agree(self, factory, steps):
        b = hopf()
        form = factory(steps)
        pairs = []
        for i in range(20):
            rng = substream(74, i)
            q0, q1 = b.sample_point(rng), b.sample_point(rng)
            if form.in_domain(q0, q1):
                pairs.append((q0, q1))
        if steps < 16:
            # one stray endpoint would stop the whole batch
            pairs = [p for p in pairs if _evaluates(form, *p)]
        assert len(pairs) >= 10
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
    def test_call_wider_than_a_field_block_gives_each_column_its_own_bits(self, factory):
        # FIELD_BLOCK + 5 columns integrate in two chunks; columns of both and
        # on either side of the seam give the bits they give integrated alone
        form = factory(16)
        q0, q1, _, _ = _geodesic_pairs(FIELD_BLOCK + 5, 84)
        angles = form._values_fn(q0, q1)
        assert angles.shape == (FIELD_BLOCK + 5,)
        for k in [*range(0, FIELD_BLOCK, 127), *range(FIELD_BLOCK - 3, FIELD_BLOCK + 5)]:
            assert form._values_fn(q0[:, k], q1[:, k]) == angles[k]

    @pytest.mark.parametrize("factory", [riemannian_form, lmw_form])
    def test_stray_in_the_last_chunk_names_the_largest_stray(self, factory):
        # a full first chunk of pairs that evaluate alone, then the pairs that
        # stray alone at 4 steps: the guard runs over every column of the call
        form = factory(4)
        q0, q1, _, _ = _geodesic_pairs(40, 5)
        strays = {}
        for k in range(q0.shape[1]):
            try:
                form._values_fn(q0[:, k], q1[:, k])
            except SolveFailed as error:
                strays[k] = str(error)
        good = [k for k in range(q0.shape[1]) if k not in strays]
        assert len(strays) >= 2 and good
        columns = [*np.resize(good, FIELD_BLOCK), *strays]
        with pytest.raises(SolveFailed) as raised:
            form._values_fn(q0[:, columns], q1[:, columns])
        largest = max(strays.values(), key=lambda message: float(message.split()[3]))
        assert str(raised.value) == largest

    @pytest.mark.parametrize("factory", [riemannian_form, lmw_form])
    def test_empty_batch(self, factory):
        assert factory(8).evaluate_many([]) == []
        # the row evaluator too, whose field blocks are sized per column
        assert factory(8)._values_fn(np.zeros((4, 0)), np.zeros((4, 0))).shape == (0,)

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
            assert circle_distance(m, g1 * a * g0.inverse()) <= 1e-6


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
        violation = circle_distance(moved, theta * base)
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
