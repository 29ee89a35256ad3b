import json
import math
import re

import pytest

from disconn import (
    AXIOM_IDS,
    DiscreteConnectionForm,
    EmptyDomainIntersection,
    InvalidConfig,
    OutOfDomain,
    OutOfRange,
    ProbeFailed,
    SampleConfig,
    TrivialBundle,
    check_axioms,
    compare_forms,
    counterexample_sweep,
    hopf_closed_form,
    lmw_form,
    make_c_function,
    riemannian_form,
    trivial_form_from_C,
    violation_from_record,
)
from disconn import riemannian, verify
from disconn.connection import _RESAMPLE_LIMIT, answer_queries
from disconn.rng import substream
from disconn.verify import CSV_HEADER

from conftest import I_BASE, J_POINT, ONE, count_root_calls


@pytest.fixture
def integrations(monkeypatch):
    """Pair count of every integrator call made while the test runs."""
    rows = []
    integrate = riemannian._integrate_rows

    def counting(q0, *args, **kwargs):
        rows.append(q0.shape[1])
        return integrate(q0, *args, **kwargs)

    monkeypatch.setattr(riemannian, "_integrate_rows", counting)
    return rows


class TestCheckAxioms:
    def test_closed_form_passes(self):
        report = check_axioms(hopf_closed_form(), SampleConfig(seed=42, n_samples=500))
        assert report.verdict == "pass"
        for record in report.axioms:
            assert record.failures == 0
            assert record.max_violation <= 1e-9

    def test_trivial_forms_pass(self, line_bundle):
        for family, params in (("constant", ()), ("linear", (1.3,))):
            form = trivial_form_from_C(line_bundle, make_c_function(family, params, 1))
            report = check_axioms(form, SampleConfig(seed=11, n_samples=500))
            assert report.verdict == "pass"
            assert report.axiom("domain_properness").samples_run == 0

    def test_constant_c_violations_are_tiny(self, line_bundle):
        form = trivial_form_from_C(line_bundle, make_c_function("constant"))
        report = check_axioms(form, SampleConfig(seed=12, n_samples=500))
        for record in report.axioms:
            assert record.max_violation <= 1e-12

    def test_lmw_fails_equivariance(self):
        report = check_axioms(lmw_form(64), SampleConfig(seed=42, n_samples=100))
        assert report.verdict == "fail"
        eq = report.axiom("equivariance")
        assert eq.failures > 0
        assert eq.max_violation > 0.05

    def test_low_step_lmw_reports_instead_of_aborting(self):
        # every sampled endpoint stays inside the fiber guard at 16 steps,
        # so the run ends in a report that names the failed axioms
        report = check_axioms(lmw_form(16), SampleConfig(seed=13, n_samples=40))
        assert report.verdict == "fail"
        assert report.axiom("equivariance").failures > 0

    def test_geodesic_form_passes_at_its_tolerance(self):
        report = check_axioms(riemannian_form(64), SampleConfig(seed=5, n_samples=100))
        assert report.verdict == "pass"

    def test_report_records_axioms_in_order(self):
        report = check_axioms(hopf_closed_form(), SampleConfig(seed=1, n_samples=20))
        assert tuple(a.axiom_id for a in report.axioms) == AXIOM_IDS

    def test_hopf_reports_count_rejected_draws(self):
        report = check_axioms(hopf_closed_form(), SampleConfig(seed=1, n_samples=20))
        assert report.resampled_out_of_domain >= 20

    def test_tolerance_override_forces_failures(self):
        # a negative tolerance fails every measured axiom; the domain axioms
        # compare exactly and still pass on a closed form that keeps them
        cfg = SampleConfig(seed=3, n_samples=50, tolerance=-1.0)
        report = check_axioms(hopf_closed_form(), cfg)
        assert report.verdict == "fail"
        for record in report.axioms:
            exact = record.axiom_id in ("diagonal_domain", "domain_invariance",
                                        "domain_properness")
            assert record.failures == (0 if exact else 50), record.axiom_id

    @pytest.mark.parametrize("tolerance", [None, 1e-9, 1e-6, 4.0])
    def test_domain_axioms_compare_exactly(self, tolerance):
        # every one of the variant's properness records is a 1, which fails
        # at every tolerance; its measured axioms pass at a tolerance of 4
        report = check_axioms(lmw_form(16), SampleConfig(seed=13, n_samples=40,
                                                         tolerance=tolerance))
        assert report.axiom("domain_properness").failures == 40
        assert report.axiom("domain_properness").max_violation == 1.0
        assert report.verdict == "fail"


class TestSampleConfigValidation:
    @pytest.mark.parametrize("n", [0, -5])
    def test_sample_count_below_one_rejected(self, n):
        with pytest.raises(InvalidConfig):
            SampleConfig(n_samples=n)

    @pytest.mark.parametrize("box", [0.0, -1.0, math.nan, math.inf])
    def test_box_not_finite_and_positive_rejected(self, box):
        with pytest.raises(InvalidConfig):
            SampleConfig(box=box)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(InvalidConfig, match="tolerance"):
            SampleConfig(tolerance=tol)

    def test_nan_tolerance_never_counts_as_pass(self):
        # even a NaN that slipped past validation must fail every sample
        cfg = SampleConfig(seed=3, n_samples=10)
        object.__setattr__(cfg, "tolerance", math.nan)
        report = check_axioms(hopf_closed_form(), cfg)
        assert report.verdict == "fail"
        assert report.axiom("normalization").failures == 10


class TestRounds:
    def test_geodesic_check_queries_each_target_once_per_round(self, integrations):
        # one round over every axiom: the form, lift, recovered form and
        # second lift state their queries to one integration of the form;
        # worst inputs are not evaluated again
        check_axioms(riemannian_form(16), SampleConfig(seed=5, n_samples=32))
        assert integrations == [352]

    def test_each_block_is_one_integration(self, integrations):
        check_axioms(riemannian_form(16), SampleConfig(seed=5, n_samples=1100))
        assert len(integrations) == math.ceil(1100 / verify._ROUND_SAMPLES)

    def test_per_pair_form_is_evaluated_once_per_block(self, line_bundle):
        # a form built from a per-pair function runs the same merged rounds
        form = trivial_form_from_C(line_bundle, make_c_function("linear", (0.9,), 1))
        calls = count_root_calls(form)
        check_axioms(form, SampleConfig(seed=6, n_samples=600))
        assert len(calls) == math.ceil(600 / verify._ROUND_SAMPLES)

    def test_violation_from_record_is_one_integration(self, integrations):
        form = riemannian_form(16)
        report = check_axioms(form, SampleConfig(seed=5, n_samples=8))
        del integrations[:]
        violation_from_record(form, "roundtrip_lift",
                              report.axiom("roundtrip_lift").worst_input)
        assert len(integrations) == 1

    def test_targets_answer_alone_as_in_a_merged_round(self, hopf):
        # a derived target's own evaluate_many / lift_many gives the bits
        # of its slice of one merged call to the root form
        targets = verify._targets(riemannian_form(16))
        rng = substream(9, 0, 0)
        points = [hopf.sample_point(rng) for _ in range(12)]
        pairs = [(q0, q1) for q0, q1 in zip(points[:6], points[6:])
                 if targets["recovered"].in_domain(q0, q1)
                 and targets["lift2"].in_domain(q0, hopf.project(q1))]
        items = [(q0, hopf.project(q1)) for q0, q1 in pairs]
        forms = [(targets["form"], pairs), (targets["recovered"], pairs)]
        lifts = [(targets["lift"], items), (targets["lift2"], items)]
        merged = answer_queries(forms + lifts)
        assert len(pairs) > 3
        for (form, batch), values in zip(forms, merged[:2]):
            assert [g.angle for g in form.evaluate_many(batch)] == [g.angle for g in values]
        for (lift, batch), lifted in zip(lifts, merged[2:]):
            assert ([p.components() for p in lift.lift_many(batch)]
                    == [p.components() for p in lifted])

    def test_form_with_a_per_pair_evaluator_gives_the_same_report(self):
        form = riemannian_form(16)
        plain = DiscreteConnectionForm(form.bundle, form.evaluate, form.in_domain,
                                       form.provenance)
        cfg = SampleConfig(seed=5, n_samples=32)
        assert check_axioms(plain, cfg).to_json() == check_axioms(form, cfg).to_json()

    def test_blocks_fold_like_one_round(self):
        # more samples than one round holds: the worst input and failure
        # count are folded across blocks
        closed = hopf_closed_form()
        listed = DiscreteConnectionForm(
            closed.bundle, closed.evaluate, closed.in_domain, closed.provenance,
            evaluate_many_fn=lambda pairs: [closed.evaluate(*p) for p in pairs])
        cfg = SampleConfig(seed=8, n_samples=verify._ROUND_SAMPLES + 60)
        assert check_axioms(listed, cfg).to_json() == check_axioms(closed, cfg).to_json()

    def test_first_maximum_wins_across_blocks(self, monkeypatch):
        # every diagonal_domain violation is 0.0, so the worst input is the
        # first sample's, as max() would pick it, whatever the round size
        monkeypatch.setattr(verify, "_ROUND_SAMPLES", 7)
        form = riemannian_form(32)
        report = check_axioms(form, SampleConfig(seed=3, n_samples=20))
        first = form.bundle.sample_point(
            substream(3, AXIOM_IDS.index("diagonal_domain"), 0))
        assert report.axiom("diagonal_domain").worst_input == {
            "arg0": {"point": form.bundle.describe_point(first)}}

    def test_small_blocks_give_the_same_report(self, monkeypatch):
        cfg = SampleConfig(seed=13, n_samples=40)
        whole = check_axioms(lmw_form(32), cfg).to_json()
        monkeypatch.setattr(verify, "_ROUND_SAMPLES", 7)
        assert check_axioms(lmw_form(32), cfg).to_json() == whole


def _point(r, angle):
    return {"point": {"r": [r], "angle": angle}}


def _base(r):
    return {"base": [r]}


def _group(angle):
    return {"group_angle": angle}


def _args(*entries):
    return {f"arg{i}": entry for i, entry in enumerate(entries)}


#: worst inputs of a linear-C form whose base pairs lie less than 1 apart
_RESTRICTED_WORST = {
    "normalization": _args(_point(-0.6807122173652962, -2.8525827212781443)),
    "equivariance": _args(_point(-0.7777574722592755, -3.0045035414813674),
                          _point(0.100789498477031, 2.3971708050633307),
                          _group(3.126754367863633), _group(-0.7025070777883156)),
    "diagonal_domain": _args(_point(1.777694519702484, 3.08209771073836)),
    "domain_invariance": _args(_point(0.7995727745804517, 1.64568289603994),
                               _point(0.6706590728427808, -0.3153088791280174),
                               _group(0.0895716019879993), _group(-2.906527306313912)),
    "lift_section": _args(_point(-1.5633962932974659, -1.0119127230499103),
                          _base(-1.1743666776824955)),
    "lift_equivariance": _args(_point(-0.3581279481826809, -3.0982506877326537),
                               _base(-1.3081021250260574), _group(-2.973469066801158)),
    "lift_normalization": _args(_point(0.8774076187232525, -0.09710682793140313)),
    "roundtrip_form": _args(_point(1.5036983491397868, -1.793176590754117),
                            _point(1.914345936959338, 0.5800802458983907)),
    "roundtrip_lift": _args(_point(-0.773278671753447, -1.203301976065041),
                            _base(0.12055092385066235)),
    "domain_properness": None,
}


class TestDrawing:
    def test_rejected_draws_keep_their_order(self, line_bundle):
        # a restricted domain rejects thousands of draws; each accepted
        # input must come from the same stream position as when recorded
        form = trivial_form_from_C(
            line_bundle, make_c_function("linear", (0.7,), 1),
            base_domain=lambda r0, r1: abs(r0[0] - r1[0]) < 1.0)
        report = check_axioms(form, SampleConfig(seed=3, n_samples=300))
        assert report.resampled_out_of_domain == 2360
        assert {a.axiom_id: a.worst_input for a in report.axioms} == _RESTRICTED_WORST

    def test_exhausted_budget_names_the_axiom(self, line_bundle):
        form = trivial_form_from_C(line_bundle, make_c_function("linear", (0.7,), 1),
                                   base_domain=lambda r0, r1: r0 == r1)
        with pytest.raises(ProbeFailed, match="equivariance"):
            check_axioms(form, SampleConfig(seed=3, n_samples=5))

    @pytest.mark.parametrize("axiom", [
        "equivariance", "domain_invariance", "lift_section", "lift_equivariance",
        "roundtrip_form", "roundtrip_lift"])
    def test_every_exhausted_draw_names_its_axiom(self, line_bundle, monkeypatch, axiom):
        # off the diagonal nothing is in the domain, so every attempt ends
        # at its first domain check; the run checks this axiom alone
        checks = []
        form = trivial_form_from_C(line_bundle, make_c_function("linear", (0.7,), 1),
                                   base_domain=lambda r0, r1: checks.append(r0) or r0 == r1)
        monkeypatch.setattr(verify, "AXIOM_IDS", (axiom,))
        with pytest.raises(ProbeFailed, match=re.escape(f"({axiom})")):
            check_axioms(form, SampleConfig(seed=3, n_samples=1))
        assert len(checks) == _RESAMPLE_LIMIT


class TestDeterminism:
    def test_byte_identical_reports(self):
        cfg = SampleConfig(seed=97, n_samples=200)
        a = check_axioms(hopf_closed_form(), cfg).to_json()
        b = check_axioms(hopf_closed_form(), cfg).to_json()
        assert a == b

    def test_geodesic_report_reproducible(self):
        cfg = SampleConfig(seed=31, n_samples=40)
        a = check_axioms(riemannian_form(32), cfg).to_json()
        b = check_axioms(riemannian_form(32), cfg).to_json()
        assert a == b

    def test_json_schema_fields(self):
        report = check_axioms(hopf_closed_form(), SampleConfig(seed=2, n_samples=20))
        data = json.loads(report.to_json())
        assert set(data.keys()) == {
            "artifact_version", "bundle", "form_provenance", "seed",
            "n_samples", "resampled_out_of_domain", "axioms", "verdict"}
        for axiom in data["axioms"]:
            assert set(axiom.keys()) == {"id", "failures", "max_violation",
                                         "worst_input"}


class TestSoundness:
    @pytest.mark.parametrize("make_form,n", [
        (hopf_closed_form, 200),
        (lambda: riemannian_form(32), 40),
        (lambda: lmw_form(32), 40),
    ])
    def test_worst_inputs_reproduce_violations(self, make_form, n):
        form = make_form()
        report = check_axioms(form, SampleConfig(seed=13, n_samples=n))
        fresh = make_form()
        for record in report.axioms:
            if record.worst_input is None:
                continue
            again = violation_from_record(fresh, record.axiom_id, record.worst_input)
            assert abs(again - record.max_violation) <= 1e-12

    @pytest.mark.parametrize("make_form", [
        lambda: riemannian_form(32),
        lambda: lmw_form(32),
        hopf_closed_form,
        pytest.param(lambda: trivial_form_from_C(
            TrivialBundle(1), make_c_function("linear", (0.9,), 1)), id="C-built"),
    ])
    def test_worst_inputs_reproduce_violations_exactly(self, make_form, monkeypatch):
        # a report records the violation its round computed, so the bits
        # must not depend on the batch: one block of 40, then blocks of 7
        for block in (verify._ROUND_SAMPLES, 7):
            monkeypatch.setattr(verify, "_ROUND_SAMPLES", block)
            report = check_axioms(make_form(), SampleConfig(seed=42, n_samples=40))
            fresh = make_form()
            for record in report.axioms:
                if record.worst_input is None:
                    continue
                again = violation_from_record(fresh, record.axiom_id,
                                              record.worst_input)
                assert again == record.max_violation

    def test_roundtrip_through_json(self, line_bundle):
        form = trivial_form_from_C(line_bundle, make_c_function("linear", (0.9,), 1))
        report = check_axioms(form, SampleConfig(seed=14, n_samples=100))
        data = json.loads(report.to_json())
        for axiom in data["axioms"]:
            if axiom["worst_input"] is None:
                continue
            again = violation_from_record(form, axiom["id"], axiom["worst_input"])
            assert abs(again - axiom["max_violation"]) <= 1e-12


def _closed_on(extra):
    """The closed form on the part of its domain where ``extra`` holds."""
    closed = hopf_closed_form()
    return DiscreteConnectionForm(
        closed.bundle, closed.evaluate,
        lambda q0, q1: closed.in_domain(q0, q1) and extra(q0, q1), "closed-form")


class TestDomainControls:
    def test_non_invariant_domain_reports_its_failures(self):
        # the diagonal (q, q) with q.w <= -0.9 is outside: normalization's
        # draw check redraws it, and the two domain axioms count it
        form = _closed_on(lambda q0, q1: q1.w > -0.9)
        report = check_axioms(form, SampleConfig(seed=1, n_samples=300))
        assert report.verdict == "fail"
        assert {a.axiom_id: a.failures for a in report.axioms if a.failures} == {
            "diagonal_domain": 11, "domain_invariance": 5}

    def test_diagonal_excluding_domain_exhausts_the_normalization_draw(self):
        form = _closed_on(lambda q0, q1: q0 != q1)
        with pytest.raises(ProbeFailed, match=re.escape("(normalization)")):
            check_axioms(form, SampleConfig(seed=1, n_samples=10))

    @pytest.mark.parametrize("extra,axiom,inputs", [
        (lambda q0, q1: True, "roundtrip_form", (ONE, J_POINT)),
        # -i is the base point of j, the one the section chart excludes
        (lambda q0, q1: True, "lift_section", (ONE, -I_BASE)),
        (lambda q0, q1: q0 != q1, "normalization", (ONE,)),
    ])
    def test_recorded_input_outside_the_domain_raises(self, hopf, extra, axiom, inputs):
        record = verify._serialize_inputs(hopf, verify._AXIOMS[axiom].steps, inputs)
        with pytest.raises(OutOfDomain, match=f"recorded {axiom} input"):
            violation_from_record(_closed_on(extra), axiom, record)


class TestCompareForms:
    def test_form_against_itself_is_exact(self):
        form = hopf_closed_form()
        cmp = compare_forms(form, form, SampleConfig(seed=21, n_samples=200))
        assert cmp.max_deviation == 0.0

    def test_geodesic_matches_closed(self):
        cmp = compare_forms(riemannian_form(64), hopf_closed_form(),
                            SampleConfig(seed=22, n_samples=100))
        assert cmp.max_deviation <= 1e-6

    def test_geodesic_low_steps_still_matches(self):
        # the stage velocities are exactly horizontal, which makes the
        # translated endpoint phase a conserved quantity of the discrete
        # flow; deviations sit at roundoff for every step count, so the
        # convergence study lives on endpoints instead (see the
        # riemannian tests)
        cmp = compare_forms(riemannian_form(32), hopf_closed_form(),
                            SampleConfig(seed=22, n_samples=100))
        assert cmp.max_deviation <= 1e-6

    def test_rejected_draws_keep_their_order(self):
        # the cap rejects about half of all pairs; each accepted pair must
        # come from the same stream position as when recorded
        cap = _closed_on(lambda q0, q1: q1.w > 0)
        cmp = compare_forms(lmw_form(16), cap, SampleConfig(seed=3, n_samples=200))
        assert cmp.max_deviation == 3.09148169308658
        assert cmp.worst_input == {
            "arg0": {"point": [0.4202143824346543, 0.5603646363243516,
                               -0.7055383589888283, -0.10782843385438953]},
            "arg1": {"point": [0.5091906333408812, 0.26778393683233326,
                               0.8103961104638436, -0.110791724589714]}}

    def test_different_bundles_rejected(self, line_bundle):
        form_a = hopf_closed_form()
        form_b = trivial_form_from_C(line_bundle, make_c_function("constant"))
        with pytest.raises(ValueError):
            compare_forms(form_a, form_b, SampleConfig())

    def test_empty_intersection(self, hopf):
        closed = hopf_closed_form()
        nowhere = DiscreteConnectionForm(
            hopf, lambda q0, q1: None, lambda q0, q1: False, "closed-form")
        with pytest.raises(EmptyDomainIntersection):
            compare_forms(closed, nowhere, SampleConfig(seed=1, n_samples=10))

    def test_partial_intersection_names_the_uncovered_sample(self, hopf):
        # most samples find a pair in the small cap, but one whose every
        # draw misses it fails the comparison instead of being dropped
        closed = hopf_closed_form()
        cap = DiscreteConnectionForm(
            hopf, closed.evaluate, lambda q0, q1: closed.in_domain(q0, q1) and q0.w > 0.9,
            "closed-form")
        with pytest.raises(EmptyDomainIntersection, match=r"sample \d+"):
            compare_forms(closed, cap, SampleConfig(seed=1, n_samples=200))


class TestSweep:
    def test_rows_and_anchors(self):
        grid = [-0.4, -0.2, 0.0, math.pi / 8.0, 0.4]
        result = counterexample_sweep(grid, steps=256)
        assert len(result.rows) == len(grid)
        by_theta = {round(r.theta, 12): r for r in result.rows}
        zero = by_theta[0.0]
        assert zero.beta_formula == 0.0
        assert abs(zero.lmw_angle) <= 1e-9
        assert abs(zero.abs_difference) <= 1e-9
        witness = by_theta[round(math.pi / 8.0, 12)]
        assert abs(witness.beta_formula - 0.30697156278446847) <= 1e-12
        assert abs(witness.lmw_angle - witness.beta_formula) <= 1e-4
        assert abs(witness.abs_difference
                   - abs(math.pi / 8.0 - witness.lmw_angle)) <= 1e-12

    def test_formula_consistency_across_grid(self):
        grid = [k * 0.05 for k in range(-14, 15)]
        result = counterexample_sweep(grid, steps=256)
        for row in result.rows:
            assert abs(row.lmw_angle - row.beta_formula) <= 1e-4

    def test_one_integration(self, integrations):
        counterexample_sweep([-0.2, 0.0, 0.3], steps=16)
        assert integrations == [5]

    def test_derivative_check(self):
        result = counterexample_sweep([0.0], steps=256)
        assert abs(result.derivative_at_zero - math.pi / 4.0) <= 1e-3

    def test_csv_header_and_shape(self):
        result = counterexample_sweep([0.0, 0.1], steps=64)
        text = result.to_csv()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert text.endswith("\n")

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            counterexample_sweep([0.0, math.pi / 4.0], steps=16)


class TestSamplingControls:
    def test_box_controls_trivial_sampling(self, line_bundle):
        form = trivial_form_from_C(line_bundle, make_c_function("constant"))
        report = check_axioms(form, SampleConfig(seed=15, n_samples=50, box=0.5))
        worst = report.axiom("normalization").worst_input
        assert all(abs(c) <= 0.5 for c in worst["arg0"]["point"]["r"])

    def test_unknown_axiom_lookup_raises(self):
        report = check_axioms(hopf_closed_form(), SampleConfig(seed=1, n_samples=5))
        with pytest.raises(KeyError):
            report.axiom("nonexistent")
