import math

import pytest

from disconn import (
    CIRCLE_IDENTITY,
    CircleElement,
    DiscreteConnectionForm,
    ProbeFailed,
    TrivialBundle,
    hopf_closed_form,
    make_c_function,
    slice_probe,
    tangent_split_check,
    trivial_form_from_C,
)
from disconn.rng import substream

from conftest import ONE


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

    def test_zero_budget_compares_nothing_and_fails(self):
        report = slice_probe(hopf_closed_form(), ONE, 0)
        assert not report.passed
        assert report.slice_samples == 0
        assert report.orbit_samples == 0
        assert report.min_separation == math.inf

    def test_probe_failure_when_no_root_exists(self, hopf):
        # a constant nonzero "form" has no horizontal slice to find
        broken = DiscreteConnectionForm(
            hopf,
            lambda q0, q1: CircleElement(1.0),
            lambda q0, q1: True,
            "closed-form")
        with pytest.raises(ProbeFailed):
            slice_probe(broken, ONE, 4, seed=2)


    def test_scan_leaving_the_domain_raises(self, hopf):
        # the domain keeps only pairs whose closed-form phase is below 2, so
        # every fiber scan crosses its boundary
        closed = hopf_closed_form()

        def dom(q0, q1):
            return closed.in_domain(q0, q1) and abs(closed.evaluate(q0, q1).angle) < 2.0

        narrow = DiscreteConnectionForm(hopf, closed.evaluate, dom, "closed-form")
        with pytest.raises(ProbeFailed, match="left the form's domain"):
            slice_probe(narrow, ONE, 4, seed=2)


class TestTangentSplit:
    def test_hopf_rank_three_at_identity(self):
        assert tangent_split_check(hopf_closed_form(), ONE)

    def test_hopf_rank_at_random_points(self, hopf):
        form = hopf_closed_form()
        for i in range(10):
            q = hopf.sample_point(substream(62, i))
            assert tangent_split_check(form, q)

    def test_dropping_orbit_column_reduces_rank(self, hopf):
        form = hopf_closed_form()
        assert tangent_split_check(form, ONE, drop_orbit=True)
        q = hopf.sample_point(substream(63, 4))
        assert tangent_split_check(form, q, drop_orbit=True)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_trivial_rank(self, dim):
        bundle = TrivialBundle(dim)
        weights = tuple(0.5 + 0.25 * k for k in range(dim))
        form = trivial_form_from_C(bundle, make_c_function("linear", weights, dim))
        for i in range(5):
            q = bundle.sample_point(substream(64, i))
            assert tangent_split_check(form, q)
            assert tangent_split_check(form, q, drop_orbit=True)

    def test_identity_group_element_constant(self):
        assert CIRCLE_IDENTITY.angle == 0.0
