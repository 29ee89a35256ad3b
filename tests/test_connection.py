import math

import numpy as np
import pytest

from disconn import (
    CircleElement,
    InvalidC,
    OutOfDomain,
    Quaternion,
    TrivialBundle,
    TrivialPoint,
    canonical_angle,
    circle_distance,
    decompose_pair,
    form_from_lift,
    hopf_closed_form,
    lift_from_form,
    make_c_function,
    reconstruct_pair,
    reduce_pair,
    riemannian_form,
    trivial_form_from_C,
    trivial_lift_from_C,
)
from disconn.algebra import hamilton
from disconn.connection import HORIZONTAL_ANGLE_ATOL, answer_queries
from disconn.rng import substream

from conftest import HALF_J, I_POINT, J_POINT, K_BASE, ONE, closed_form_where


def sample_hopf_pair(hopf, form, stream_id, i):
    rng = substream(stream_id, i)
    while True:
        q0 = hopf.sample_point(rng)
        q1 = hopf.sample_point(rng)
        if form.in_domain(q0, q1):
            return q0, q1, rng


class TestDecomposition:
    def test_trivial_identity_c(self, line_bundle):
        form = trivial_form_from_C(line_bundle, make_c_function("constant"))
        q0 = line_bundle.point(0.0, CircleElement(0.1))
        q1 = line_bundle.point(1.0, CircleElement(0.4))
        dec = decompose_pair(form, q0, q1)
        assert abs(dec.g.angle - 0.3) < 1e-15
        assert dec.h1.r == (1.0,)
        assert abs(dec.h1.g.angle - 0.1) < 1e-15

    def test_diagonal_normalization(self, hopf):
        form = hopf_closed_form()
        rng = substream(7, 0)
        q = hopf.sample_point(rng)
        dec = decompose_pair(form, q, q)
        assert dec.g.angle == 0.0
        assert hopf.distance(dec.h1, q) < 1e-12

    def test_hopf_vertical_pair(self, hopf):
        dec = decompose_pair(hopf_closed_form(), ONE, I_POINT)
        assert abs(dec.g.angle - math.pi / 2.0) < 1e-15
        assert hopf.distance(dec.h1, ONE) < 1e-15

    def test_reconstruction_and_horizontality(self, hopf):
        form = hopf_closed_form()
        for i in range(500):
            q0, q1, _ = sample_hopf_pair(hopf, form, 201, i)
            dec = decompose_pair(form, q0, q1)
            assert hopf.distance(hopf.act(dec.g, dec.h1), q1) <= 1e-9
            assert abs(form.evaluate(q0, dec.h1).angle) <= HORIZONTAL_ANGLE_ATOL

    def test_out_of_domain(self):
        form = hopf_closed_form()
        with pytest.raises(OutOfDomain):
            decompose_pair(form, ONE, J_POINT)


class TestTrivialConstructions:
    def test_constant_family_value(self, line_bundle):
        form = trivial_form_from_C(line_bundle, make_c_function("constant"))
        g = form.evaluate(line_bundle.point(0.0, CircleElement(0.3)),
                          line_bundle.point(1.0, CircleElement(0.5)))
        assert abs(g.angle - 0.2) < 1e-15

    def test_linear_family_value(self, line_bundle):
        form = trivial_form_from_C(line_bundle, make_c_function("linear", (1.0,), 1))
        g = form.evaluate(line_bundle.point(0.0, CircleElement(0.3)),
                          line_bundle.point(1.0, CircleElement(0.5)))
        assert abs(g.angle - 1.2) < 1e-15

    def test_diagonal_is_identity(self, plane_bundle):
        form = trivial_form_from_C(plane_bundle,
                                   make_c_function("linear", (0.4, -1.1), 2))
        for i in range(200):
            rng = substream(11, i)
            q = plane_bundle.sample_point(rng)
            assert form.evaluate(q, q).angle == 0.0

    def test_invalid_c_rejected(self, line_bundle):
        broken = lambda r0, r1: np.full(r0.shape[1:], 0.5)  # noqa: E731
        with pytest.raises(InvalidC):
            trivial_form_from_C(line_bundle, broken)
        # a NaN angle fails the check C(r, r) = e
        nan_c = lambda r0, r1: np.full(r0.shape[1:], math.nan)  # noqa: E731
        for build in (trivial_form_from_C, trivial_lift_from_C):
            with pytest.raises(InvalidC, match="has angle nan"):
                build(line_bundle, nan_c)
        with pytest.raises(InvalidC):
            make_c_function("nope")
        with pytest.raises(InvalidC):
            make_c_function("linear", (1.0, 2.0), 1)
        for weight in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidC, match="finite"):
                make_c_function("linear", (1.0, weight), 2)

    def test_lift_linear_family(self, line_bundle):
        lift = trivial_lift_from_C(line_bundle, make_c_function("linear", (1.0,), 1))
        out = lift.lift(line_bundle.point(0.0, CircleElement(0.2)), (1.0,))
        assert out.r == (1.0,)
        assert abs(out.g.angle - (-0.8)) < 1e-15

    def test_lift_diagonal(self, line_bundle):
        lift = trivial_lift_from_C(line_bundle, make_c_function("linear", (2.0,), 1))
        p = line_bundle.point(0.7, CircleElement(0.9))
        out = lift.lift(p, (0.7,))
        assert line_bundle.distance(out, p) == 0.0

    def test_lift_constant_c_transports_group_slot(self, line_bundle):
        lift = trivial_lift_from_C(line_bundle, make_c_function("constant"))
        out = lift.lift(line_bundle.point(0.0, CircleElement(0.4)), (2.5,))
        assert out.r == (2.5,)
        assert abs(out.g.angle - 0.4) < 1e-15

    @pytest.mark.parametrize("family,params", [("constant", ()), ("linear", (0.8,))])
    def test_lift_from_form_matches_direct_lift(self, line_bundle, family, params):
        c_fn = make_c_function(family, params, 1)
        derived = lift_from_form(trivial_form_from_C(line_bundle, c_fn))
        direct = trivial_lift_from_C(line_bundle, c_fn)
        for i in range(1000):
            rng = substream(31, i)
            q0 = line_bundle.sample_point(rng)
            r1 = line_bundle.project(line_bundle.sample_point(rng))
            assert line_bundle.distance(derived.lift(q0, r1),
                                        direct.lift(q0, r1)) <= 1e-12


class TestLiftFormConversions:
    def test_hopf_lift_example(self, hopf):
        lift = lift_from_form(hopf_closed_form())
        out = lift.lift(ONE, K_BASE)
        assert hopf.distance(out, HALF_J) < 1e-12

    def test_hopf_lift_normalization(self, hopf):
        lift = lift_from_form(hopf_closed_form())
        out = lift.lift(ONE, hopf.project(ONE))
        assert hopf.distance(out, ONE) < 1e-12

    def test_roundtrip_form_to_lift_to_form(self, hopf):
        form = hopf_closed_form()
        recovered = form_from_lift(lift_from_form(form))
        for i in range(1000):
            q0, q1, _ = sample_hopf_pair(hopf, form, 202, i)
            d = circle_distance(form.evaluate(q0, q1), recovered.evaluate(q0, q1))
            assert d <= 1e-9

    def test_roundtrip_lift_to_form_to_lift(self, hopf):
        lift = lift_from_form(hopf_closed_form())
        lift2 = lift_from_form(form_from_lift(lift))
        for i in range(500):
            rng = substream(203, i)
            q0 = hopf.sample_point(rng)
            r1 = hopf.project(hopf.sample_point(rng))
            if not (lift.in_domain(q0, r1) and lift2.in_domain(q0, r1)):
                continue
            assert hopf.distance(lift.lift(q0, r1), lift2.lift(q0, r1)) <= 1e-9

    def test_trivial_recovered_value(self, line_bundle):
        form = trivial_form_from_C(line_bundle, make_c_function("constant"))
        recovered = form_from_lift(lift_from_form(form))
        g = recovered.evaluate(line_bundle.point(0.0, CircleElement(0.3)),
                               line_bundle.point(1.0, CircleElement(0.5)))
        assert abs(g.angle - 0.2) < 1e-12

    def test_form_from_direct_lift_matches_c_form(self, line_bundle):
        # the recovered form's root is the C-built lift itself
        c_fn = make_c_function("linear", (0.8,), 1)
        form = trivial_form_from_C(line_bundle, c_fn)
        recovered = form_from_lift(trivial_lift_from_C(line_bundle, c_fn))
        pairs = [(line_bundle.sample_point(substream(206, i)),
                  line_bundle.sample_point(substream(207, i))) for i in range(50)]
        for g, h in zip(form.evaluate_many(pairs), recovered.evaluate_many(pairs)):
            assert circle_distance(g, h) <= 1e-12

    def test_queries_to_two_roots_rejected(self):
        pairs = [(ONE, HALF_J)]
        with pytest.raises(ValueError, match="one root"):
            answer_queries([(hopf_closed_form(), pairs), (hopf_closed_form(), pairs)])

    def test_rounds_never_check_a_domain(self, hopf):
        # a round serves pairs that a draw already checked: it answers all
        # four targets without calling the domain function, with the bits
        # of each target's public call, and those public calls still check
        in_round = []

        def dom(q0, q1):
            if in_round:
                raise AssertionError("a round checked a domain")
            return True

        form = closed_form_where(dom)
        lift = lift_from_form(form)
        recovered = form_from_lift(lift)
        lift2 = lift_from_form(recovered)
        pairs = [sample_hopf_pair(hopf, recovered, 205, i)[:2] for i in range(8)]
        items = [(q0, hopf.project(q1)) for q0, q1 in pairs]
        assert all(lift2.in_domain(*item) for item in items)
        calls = [(form.evaluate_many, pairs), (lift.lift_many, items),
                 (recovered.evaluate_many, pairs), (lift2.lift_many, items)]
        in_round.append(True)
        answers = answer_queries([(call.__self__, call.__self__.item_rows(batch))
                                  for call, batch in calls])
        in_round.clear()
        for (call, batch), answer in zip(calls, answers):
            kind = "group" if batch is pairs else "point"
            assert repr(call(batch)) == repr(hopf.values_of(kind, answer))
            outside = (ONE, J_POINT if batch is pairs else hopf.project(J_POINT))
            with pytest.raises(OutOfDomain):
                call([outside])

    def test_c_built_lift_checks_only_at_its_public_call(self, line_bundle):
        in_round = []

        def near(r0, r1):
            if in_round:
                raise AssertionError("a round checked a domain")
            return abs(r0[0] - r1[0]) < 1.0

        lift = trivial_lift_from_C(line_bundle, make_c_function("linear", (0.7,), 1),
                                   base_domain=near)
        q0 = line_bundle.point(0.1, CircleElement(0.2))
        in_round.append(True)
        (lifted,) = answer_queries([(lift, lift.item_rows([(q0, (0.5,))]))])
        in_round.clear()
        assert repr(line_bundle.values_of("point", lifted)) == repr(lift.lift_many([(q0, (0.5,))]))
        with pytest.raises(OutOfDomain):
            lift.lift(q0, (3.0,))

    def test_recovered_diagonal(self, hopf):
        recovered = form_from_lift(lift_from_form(hopf_closed_form()))
        for i in range(100):
            rng = substream(204, i)
            q = hopf.sample_point(rng)
            assert abs(recovered.evaluate(q, q).angle) <= 1e-9

    def test_lift_section_and_equivariance(self, hopf):
        lift = lift_from_form(hopf_closed_form())
        for i in range(500):
            rng = substream(205, i)
            q0 = hopf.sample_point(rng)
            r1 = hopf.project(hopf.sample_point(rng))
            if not lift.in_domain(q0, r1):
                continue
            g = hopf.sample_group(rng)
            out = lift.lift(q0, r1)
            assert hopf.base_distance(hopf.project(out), r1) <= 1e-9
            moved = lift.lift(hopf.act(g, q0), r1)
            assert hopf.distance(moved, hopf.act(g, out)) <= 1e-9

    def test_section_independence(self, hopf):
        # second chart: right-translate the section by p = j, which moves
        # its excluded base point to +i; as rows, NaN stays NaN off the chart,
        # and a product of unit quaternions is unit to rounding
        p = (0.0, 0.0, 1.0, 0.0)

        def other_section(r):
            rotated = np.array(hamilton(*hamilton(*p, *r), 0.0, 0.0, -1.0, 0.0))
            s, defined = hopf.section_rows(rotated)
            return np.array(hamilton(*s, *p)), defined

        form = hopf_closed_form()
        lift_a = lift_from_form(form)
        lift_b = lift_from_form(form, section=other_section)
        checked = 0
        for i in range(500):
            rng = substream(206, i)
            q0 = hopf.sample_point(rng)
            r1 = hopf.project(hopf.sample_point(rng))
            if not (lift_a.in_domain(q0, r1) and lift_b.in_domain(q0, r1)):
                continue
            checked += 1
            assert hopf.distance(lift_a.lift(q0, r1), lift_b.lift(q0, r1)) <= 1e-9
        assert checked > 450

    def test_section_row_kernel_lifts_as_the_default(self, hopf):
        # the bundle's own section kernel, given as ``section``, lifts bit for
        # bit as the default section does, and excludes the base point -i its
        # chart leaves out
        form = hopf_closed_form()
        lifts = [lift_from_form(form, section=s) for s in (None, hopf.section_rows)]
        rng = substream(216, 0)
        items = [(hopf.sample_point(rng), hopf.project(hopf.sample_point(rng)))
                 for _ in range(200)]
        items = [item for item in items if lifts[0].in_domain(*item)]
        assert len(items) > 150
        excluded = Quaternion(0.0, -1.0, 0.0, 0.0)
        mixed = lifts[0].item_rows(items[:3] + [(items[0][0], excluded)])
        for lift in lifts:
            assert repr(lift.lift_many(items)) == repr(lifts[0].lift_many(items))
            assert repr(lift.lift(*items[0])) == repr(lifts[0].lift(*items[0]))
            assert not lift.in_domain(items[0][0], excluded)
            assert lift.domain_rows(*mixed).tolist() == [True, True, True, False]
            with pytest.raises(OutOfDomain):
                lift.lift(items[0][0], excluded)


class TestEquivarianceAndDomain:
    def test_equivariance_closed_form(self, hopf):
        form = hopf_closed_form()
        for i in range(1000):
            q0, q1, rng = sample_hopf_pair(hopf, form, 207, i)
            g0 = hopf.sample_group(rng)
            g1 = hopf.sample_group(rng)
            expected = g1 * form.evaluate(q0, q1) * g0.inverse()
            actual = form.evaluate(hopf.act(g0, q0), hopf.act(g1, q1))
            assert circle_distance(actual, expected) <= 1e-9

    def test_disjoint_translates(self, hopf):
        # translating the second slot of a horizontal pair by g yields
        # form value g, nonzero whenever g is
        form = hopf_closed_form()
        lift = lift_from_form(form)
        for i in range(500):
            rng = substream(208, i)
            q0 = hopf.sample_point(rng)
            r1 = hopf.project(hopf.sample_point(rng))
            if not lift.in_domain(q0, r1):
                continue
            h1 = lift.lift(q0, r1)
            g = hopf.sample_group(rng)
            if abs(g.angle) <= 1e-6:
                continue
            val = form.evaluate(q0, hopf.act(g, h1))
            assert circle_distance(val, g) <= 1e-9
            assert abs(val.angle) > 1e-7

    def test_domain_contains_diagonal_and_is_invariant(self, hopf):
        form = hopf_closed_form()
        for i in range(500):
            rng = substream(209, i)
            q = hopf.sample_point(rng)
            assert form.in_domain(q, q)
            q0, q1, rng2 = sample_hopf_pair(hopf, form, 210, i)
            g0, g1 = hopf.sample_group(rng2), hopf.sample_group(rng2)
            assert form.in_domain(hopf.act(g0, q0), hopf.act(g1, q1))

    def test_properness_witness_rejected(self):
        assert not hopf_closed_form().in_domain(ONE, J_POINT)
        assert not riemannian_form(16).in_domain(ONE, J_POINT)


class TestHorizontality:
    def test_examples(self):
        form = hopf_closed_form()
        # a pair is horizontal where the form's value is the identity
        assert form.evaluate(ONE, HALF_J).angle == 0.0
        assert form.evaluate(ONE, ONE).angle == 0.0
        assert form.evaluate(ONE, I_POINT).angle == math.pi / 2.0


class TestReducedSpace:
    def test_trivial_example(self, line_bundle):
        form = trivial_form_from_C(line_bundle, make_c_function("constant"))
        rp = reduce_pair(form,
                         line_bundle.point(0.0, CircleElement(0.1)),
                         line_bundle.point(1.0, CircleElement(0.4)))
        assert rp.base0 == (0.0,) and rp.base1 == (1.0,)
        assert rp.rep_point.r == (0.0,) and rp.rep_point.g.angle == 0.0
        assert abs(rp.rep_group.angle - 0.3) < 1e-15

    def test_diagonal(self, hopf):
        form = hopf_closed_form()
        rng = substream(51, 0)
        q = hopf.sample_point(rng)
        rp = reduce_pair(form, q, q)
        assert hopf.base_distance(rp.base0, rp.base1) == 0.0
        assert abs(rp.rep_group.angle) <= 1e-9

    @pytest.mark.parametrize("bundle_name", ["hopf", "line"])
    def test_canonical_roundtrip(self, bundle_name, hopf, line_bundle):
        if bundle_name == "hopf":
            bundle, form = hopf, hopf_closed_form()
        else:
            bundle = line_bundle
            form = trivial_form_from_C(line_bundle, make_c_function("linear", (0.5,), 1))
        count = 0
        for i in range(1000):
            rng = substream(52, i)
            q0 = bundle.sample_point(rng)
            q1 = bundle.sample_point(rng)
            if not form.in_domain(q0, q1):
                continue
            r0 = bundle.project(q0)
            if not bundle.section_defined(r0):
                continue
            # canonicalize the pair first so the round trip is the identity
            h = bundle.fiber_translation(q0, bundle.local_section(r0))
            c0, c1 = bundle.act(h, q0), bundle.act(h, q1)
            if not form.in_domain(c0, c1):
                continue
            count += 1
            rp = reduce_pair(form, c0, c1)
            out0, out1 = reconstruct_pair(form, rp)
            assert bundle.distance(out0, c0) <= 1e-9
            assert bundle.distance(out1, c1) <= 1e-9
        assert count > 900

    def test_orbit_recovery_from_arbitrary_pair(self, hopf):
        form = hopf_closed_form()
        for i in range(300):
            q0, q1, _ = sample_hopf_pair(hopf, form, 53, i)
            if not hopf.section_defined(hopf.project(q0)):
                continue
            rp = reduce_pair(form, q0, q1)
            out0, out1 = reconstruct_pair(form, rp)
            g = hopf.fiber_translation(q0, out0)
            assert hopf.distance(hopf.act(g, q1), out1) <= 1e-9


def _crosses(total):
    return not -math.pi < total <= math.pi


class TestResultOnlyTrivialArithmetic:
    """The trivial bundle's one-step arithmetic equals its object expressions.

    Every input is chosen so that each intermediate sum leaves (-pi, pi],
    where dropping one intermediate reduction changes the last bit.  The
    group angles are multiples of pi: the draw's own angles lie on a grid
    on which these sums are exact.  Each drawn pair comes again with the
    first group angle at pi, and with a base pair at which C is pi: pi is
    the one angle whose negation is not canonical.
    """

    BUNDLE = TrivialBundle(3)
    C_ROWS = staticmethod(make_c_function("linear", (0.5, -1.0, 2.0), 3))
    #: base points at which C is pi
    C_AT_PI = ((0.0, 0.0, 0.0), (math.tau, 0.0, 0.0))

    def draws(self, stream_id, n=10_000):
        rng = substream(stream_id)

        def angle():
            return CircleElement(math.pi * rng.uniform_in(-1.0, 1.0))

        for _ in range(n):
            g0, g1 = angle(), angle()
            r0, r1 = (tuple(rng.uniform_in(-2.0, 2.0) for _ in range(3)) for _ in "01")
            yield TrivialPoint(r0, g0), TrivialPoint(r1, g1)
            yield TrivialPoint(r0, CircleElement(math.pi)), TrivialPoint(r1, g1)
            yield TrivialPoint(self.C_AT_PI[0], g0), TrivialPoint(self.C_AT_PI[1], g1)

    def C(self, r0, r1):
        """C at one base pair, as a group element."""
        return CircleElement(float(self.C_ROWS(np.array(r0), np.array(r1))))

    def test_c_built_value(self):
        form = trivial_form_from_C(self.BUNDLE, self.C_ROWS)
        checked = 0
        for q0, q1 in self.draws(24):
            c = self.C(q0.r, q1.r)
            inner = q1.g * c
            if not (_crosses(q1.g.angle + c.angle)
                    and _crosses(inner.angle + canonical_angle(-q0.g.angle))):
                continue
            checked += 1
            ref = inner * q0.g.inverse()
            assert repr(form.evaluate(q0, q1).angle) == repr(ref.angle), (q0, q1)
        assert checked > 1_000

    def test_c_built_lift(self):
        lift = trivial_lift_from_C(self.BUNDLE, self.C_ROWS)
        checked = 0
        for q0, q1 in self.draws(25):
            c = self.C(q0.r, q1.r)
            if not _crosses(q0.g.angle + canonical_angle(-c.angle)):
                continue
            checked += 1
            ref = q0.g * c.inverse()
            assert repr(lift.lift(q0, q1.r).g.angle) == repr(ref.angle), (q0, q1)
        assert checked > 1_000

    def test_fiber_translation(self):
        checked = 0
        for q0, other in self.draws(26):
            q1 = TrivialPoint(q0.r, other.g)
            if not _crosses(q1.g.angle + canonical_angle(-q0.g.angle)):
                continue
            checked += 1
            ref = q1.g * q0.g.inverse()
            assert (repr(self.BUNDLE.fiber_translation(q0, q1).angle)
                    == repr(ref.angle)), (q0, q1)
        assert checked > 1_000
