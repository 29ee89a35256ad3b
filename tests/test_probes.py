import math

import numpy as np
import pytest

from disconn import (
    CIRCLE_IDENTITY,
    CircleElement,
    DiscreteConnectionForm,
    InvalidConfig,
    ProbeFailed,
    TrivialBundle,
    hopf_closed_form,
    lmw_form,
    make_c_function,
    riemannian_form,
    slice_probe,
    slice_probes,
    tangent_split_check,
    trivial_form_from_C,
)
from disconn import connection
from disconn.bundle import box_fits, phase_rows
from disconn.connection import (HORIZONTAL_ANGLE_ATOL, _EXCLUSION_RADIUS, _RESAMPLE_LIMIT,
                                _slice_points)
from disconn.rng import substream

from conftest import ONE, at_point, closed_form_broken_at, closed_form_where, count_root_calls


class TestSliceProbe:
    def test_hopf_separation_at_identity(self, hopf):
        report = slice_probe(hopf_closed_form(), ONE, 64, seed=5)
        assert report.passed
        assert report.min_separation > 1e-2

    def test_hopf_separation_at_random_points(self, hopf):
        form = hopf_closed_form()
        for i in range(10):
            q = hopf.sample_point(substream(61, i))
            report = slice_probe(form, q, 32, seed=100 + i)
            assert report.passed, f"point {i}: min {report.min_separation}"

    def test_trivial_slice_and_orbit(self, line_bundle):
        form = trivial_form_from_C(line_bundle, make_c_function("constant"))
        q = line_bundle.point(0.5, CircleElement(0.3))
        report = slice_probe(form, q, 48, seed=9)
        assert report.passed
        # the slice fixes the group slot and the orbit fixes the base, so
        # away from q the two stay a positive distance apart
        assert report.min_separation > 1e-2

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        # a probe without samples would compare nothing
        with pytest.raises(InvalidConfig, match="budget"):
            slice_probe(hopf_closed_form(), ONE, budget)

    @pytest.mark.parametrize("separation", [0.0, -1.0, math.nan, math.inf])
    def test_separation_not_finite_and_positive_rejected(self, separation):
        # every probe would pass a threshold of zero or below, and none of nan
        with pytest.raises(InvalidConfig, match="separation"):
            slice_probe(hopf_closed_form(), ONE, 4, separation=separation)

    @pytest.mark.parametrize("box", [0.0, -1.0, math.nan, math.inf])
    def test_box_not_finite_and_positive_rejected(self, line_bundle, box):
        # the box SampleConfig refuses: nothing to draw in, or no finite draw
        form = trivial_form_from_C(line_bundle, make_c_function("constant"))
        with pytest.raises(InvalidConfig, match="box must be finite and above 0"):
            slice_probe(form, line_bundle.point(0.5), 4, box=box)

    def test_box_whose_squared_diameter_overflows_rejected(self, line_bundle):
        # the CLI's rule for --box: a box of 1e200 squared its distances into
        # a bare OverflowError
        form = trivial_form_from_C(line_bundle, make_c_function("constant"))
        with pytest.raises(InvalidConfig, match="squared diameter"):
            slice_probe(form, line_bundle.point(0.5), 4, box=1e200)
        assert box_fits(5e153, 1) and not box_fits(5e153, 3) and not box_fits(1e154, 1)
        assert not box_fits(1.0, 10**400)

    def test_no_points_rejected(self):
        with pytest.raises(InvalidConfig, match="at least one point"):
            slice_probes(hopf_closed_form(), [], 2)

    def test_every_sample_is_drawn_away_from_the_probed_point(self, line_bundle,
                                                              monkeypatch):
        # in a box of half-width 3e-3 around q, two fiber directions in three
        # lie within 2e-3 of q and are redrawn, as is an orbit element within
        # 1e-3 of the identity; the slice point (r, g_q) keeps |r| > 2e-3 and
        # the orbit point (0, g g_q) keeps |g| > 1e-3
        slice_pts = []

        def recording(form, pairs):
            rows = _slice_points(form, pairs)
            slice_pts.extend(line_bundle.values_of("point", rows))
            return rows

        monkeypatch.setattr(connection, "_slice_points", recording)
        form = trivial_form_from_C(line_bundle, make_c_function("constant"))
        q = line_bundle.point(0.0)
        report = slice_probe(form, q, 64, seed=4, box=3e-3, separation=2.2e-3)
        assert len(slice_pts) == 64
        assert all(abs(p.r[0]) > 2 * _EXCLUSION_RADIUS for p in slice_pts)
        assert report.passed and report.min_separation > math.sqrt(5.0) * 1e-3

    def test_probe_failure_when_no_root_exists(self, hopf):
        # a constant nonzero "form" has no horizontal slice to find
        broken = DiscreteConnectionForm(
            hopf, "closed-form",
            lambda q0, q1: np.ones(q0.shape[1:], dtype=bool),
            lambda q0, q1: np.ones(q0.shape[1:]))
        with pytest.raises(ProbeFailed):
            slice_probe(broken, ONE, 4, seed=2)


    def test_fiber_direction_draw_tries_the_resample_limit(self):
        # a domain holding nothing off the diagonal: every candidate is
        # checked once, and the probe gives up after the shared budget
        checked = []
        empty = closed_form_where(lambda q0, q1: False, checked=checked)
        with pytest.raises(ProbeFailed, match="fiber direction"):
            slice_probe(empty, ONE, 4, seed=2)
        assert sum(checked) == _RESAMPLE_LIMIT

    def test_partner_leaving_the_domain_raises(self):
        # the domain keeps only pairs whose closed-form phase exceeds 0.5 in
        # magnitude, so it excludes every horizontal partner
        narrow = closed_form_where(lambda q0, q1: abs(phase_rows(q0, q1)) > 0.5)
        with pytest.raises(ProbeFailed, match="left the form's domain"):
            slice_probe(narrow, ONE, 4, seed=2)

    def test_variant_is_not_equivariant_along_the_fiber(self, hopf):
        q = hopf.sample_point(substream(65, 0))
        with pytest.raises(ProbeFailed, match="not equivariant along that fiber"):
            slice_probe(lmw_form(64), q, 4, seed=3)


@pytest.mark.parametrize("form", [
    pytest.param(hopf_closed_form(), id="closed"),
    pytest.param(riemannian_form(32), id="geodesic"),
    pytest.param(trivial_form_from_C(TrivialBundle(2),
                                     make_c_function("linear", (0.7, -0.4), 2)),
                 id="linear"),
])
def test_slice_points_are_horizontal_partners_on_the_fiber(form):
    bundle = form.bundle
    rng = substream(66, 0)
    for i in range(3):
        q = bundle.sample_point(substream(67, i))
        points = [bundle.sample_point(rng) for _ in range(8)]
        points = [p for p in points if form.in_domain(q, p)]
        assert points
        partners = _slice_points(form, form.item_rows([(q, p) for p in points]))
        for p, h in zip(points, bundle.values_of("point", partners)):
            assert abs(form.evaluate(q, h).angle) <= HORIZONTAL_ANGLE_ATOL
            bundle.fiber_translation(p, h)  # raises NotSameFiber off the fiber


class TestSliceProbes:
    @pytest.mark.parametrize("form", [
        pytest.param(hopf_closed_form(), id="closed"),
        pytest.param(riemannian_form(32), id="geodesic"),
        pytest.param(trivial_form_from_C(TrivialBundle(2),
                                         make_c_function("linear", (0.7, -0.4), 2)),
                     id="linear"),
    ])
    def test_points_together_report_as_one_at_a_time(self, form):
        rng = substream(68, 0)
        points = [form.bundle.sample_point(rng) for _ in range(4)]
        reports = slice_probes(form, points, 8, seed=21)
        assert reports == [slice_probe(form, q, 8, seed=21 + k)
                           for k, q in enumerate(points)]

    def test_later_point_residual_raises_after_two_evaluations(self, hopf):
        points = [hopf.sample_point(substream(69, k)) for k in range(3)]
        form = closed_form_broken_at(points[2])
        with pytest.raises(ProbeFailed) as alone:
            slice_probe(form, points[2], 4, seed=7 + 2)
        calls = count_root_calls(form)
        with pytest.raises(ProbeFailed) as together:
            slice_probes(form, points, 4, seed=7)
        assert str(together.value) == str(alone.value)
        assert "not equivariant along that fiber" in str(alone.value)
        # every point's slice points come from the same two evaluations
        assert calls == [12, 12]

    def test_rejected_draws_keep_their_order(self, hopf):
        # half of all fibers lie outside the domain; each accepted direction
        # must come from the same stream position as when recorded
        half = closed_form_where(lambda q0, q1: hopf.project_rows(q1)[1] > 0)
        points = [hopf.sample_point(substream(5, k)) for k in range(3)]
        reports = slice_probes(half, points, 16, seed=9)
        assert [r.min_separation for r in reports] == [
            0.5147668390061158, 0.16680307471325073, 0.34232703643153534]

    def test_each_pair_is_checked_once(self, hopf):
        # the draw checks each pair (q, p), and _slice_points each partner
        checks = []
        form = closed_form_where(checked=checks)
        points = [hopf.sample_point(substream(70, k)) for k in range(3)]
        slice_probes(form, points, 8, seed=5)
        assert sum(checks) == 2 * len(points) * 8

    def test_later_point_draw_failure_raises_before_any_evaluation(self, hopf):
        points = [hopf.sample_point(substream(69, k)) for k in range(3)]
        form = closed_form_where(lambda q0, q1: ~at_point(q0, points[2]))
        calls = count_root_calls(form)
        with pytest.raises(ProbeFailed, match="fiber direction"):
            slice_probes(form, points, 4, seed=7)
        assert calls == []


class TestTangentSplit:
    def test_hopf_rank_three_at_identity(self):
        assert tangent_split_check(hopf_closed_form(), ONE)

    def test_hopf_rank_at_random_points(self, hopf):
        form = hopf_closed_form()
        for i in range(10):
            q = hopf.sample_point(substream(62, i))
            assert tangent_split_check(form, q)

    def test_each_pair_is_checked_once(self, hopf):
        # the finite-difference pairs where they are built, then the partners
        checks = []
        form = closed_form_where(checked=checks)
        assert tangent_split_check(form, ONE)
        assert sum(checks) == 2 * 2 * hopf.dim_base

    @pytest.mark.parametrize("dim", [1, 2])
    def test_trivial_rank(self, dim):
        bundle = TrivialBundle(dim)
        weights = tuple(0.5 + 0.25 * k for k in range(dim))
        form = trivial_form_from_C(bundle, make_c_function("linear", weights, dim))
        for i in range(5):
            q = bundle.sample_point(substream(64, i))
            assert tangent_split_check(form, q)

    def test_identity_group_element_constant(self):
        assert CIRCLE_IDENTITY.angle == 0.0
