import json
import math
import re

import numpy as np
import pytest

from disconn import (
    AXIOM_IDS,
    CircleElement,
    EmptyDomainIntersection,
    InvalidConfig,
    OutOfDomain,
    OutOfRange,
    ProbeFailed,
    SampleConfig,
    TrivialBundle,
    UnitQuaternion,
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
from disconn import connection, riemannian, verify
from disconn.connection import _RESAMPLE_LIMIT, answer_queries, slice_probes
from disconn.rng import substream
from disconn.verify import CSV_HEADER

from conftest import I_BASE, J_POINT, ONE, closed_form_where, columns, count_root_calls


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

    def test_each_block_integrates_in_field_blocks(self, integrations):
        # a round of 1,024 samples states 11,264 pairs in one root call, which
        # integrates them in chunks of FIELD_BLOCK; the last 76 samples make one
        check_axioms(riemannian_form(16), SampleConfig(seed=5, n_samples=1100))
        assert integrations == [4096, 4096, 3072, 836]

    def test_per_pair_form_is_evaluated_once_per_block(self, line_bundle):
        # a C-built form runs the same merged rounds, one root call per block
        form = trivial_form_from_C(line_bundle, make_c_function("linear", (0.9,), 1))
        calls = count_root_calls(form)
        check_axioms(form, SampleConfig(seed=6, n_samples=1100))
        assert len(calls) == math.ceil(1100 / verify._ROUND_SAMPLES) == 2

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
        merged = answer_queries([(target, target.item_rows(batch))
                                 for target, batch in forms + lifts])
        assert len(pairs) > 3
        for (form, batch), values in zip(forms, merged[:2]):
            assert [g.angle for g in form.evaluate_many(batch)] == values.tolist()
        for (lift, batch), lifted in zip(lifts, merged[2:]):
            assert [p.components() for p in lift.lift_many(batch)] == [
                tuple(c) for c in lifted.T.tolist()]

    @pytest.mark.parametrize("make_form", [
        pytest.param(hopf_closed_form, id="closed"),
        pytest.param(lambda: trivial_form_from_C(
            TrivialBundle(1), make_c_function("linear", (0.9,), 1)), id="trivial-linear"),
    ])
    def test_blocks_fold_like_one_round(self, make_form, monkeypatch):
        # more samples than one round holds: the worst input and failure
        # count are folded across blocks as one round holding them all, or
        # rounds of the 256 samples they once held, find them
        form = make_form()
        cfg = SampleConfig(seed=8, n_samples=verify._ROUND_SAMPLES + 60)
        blocks = check_axioms(form, cfg).to_json()
        for size in (cfg.n_samples, 256):
            monkeypatch.setattr(verify, "_ROUND_SAMPLES", size)
            assert blocks == check_axioms(form, cfg).to_json()

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


def _plane_point(r0, r1, angle):
    return {"point": {"r": [r0, r1], "angle": angle}}


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
                                   base_domain=lambda r0, r1: r0[0] == r1[0])
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
                                   base_domain=lambda r0, r1: checks.append(columns(r0))
                                   or r0[0] == r1[0])
        monkeypatch.setattr(verify, "AXIOM_IDS", (axiom,))
        with pytest.raises(ProbeFailed, match=re.escape(f"({axiom})")):
            check_axioms(form, SampleConfig(seed=3, n_samples=1))
        assert sum(checks) == _RESAMPLE_LIMIT


def _serial_draw_rows(steps, targets, streams, box, rejected, exhausted, offsets=None,
                     drawn=()):
    """The draw loop one sample at a time: each row a stateful stream read
    through ``sample_point`` and ``sample_group``, restarted on a failed check,
    which sees the sample alone, as rows of one column."""
    bundle = targets["form"].bundle
    samples = []
    for i, rng in enumerate(streams):
        for _ in range(_RESAMPLE_LIMIT):
            inputs = [d[..., i:i + 1] for d in drawn]
            for kind, check in steps:
                if kind == "group":
                    value = bundle.sample_group(rng)
                else:
                    q = bundle.sample_point(rng, box=box)
                    value = q if kind == "point" else bundle.project(q)
                inputs.append(bundle.rows_of(kind, [value]))
                if check is not None and not check(targets, inputs)[0]:
                    rejected[0] += 1
                    break
            else:
                samples.append(inputs)
                break
        else:
            raise exhausted(i)
    return [np.concatenate(rows, axis=-1) for rows in zip(*samples)]


def _serial_streams(seed, *keys):
    """``substream`` per row, for keys (and seed) that are ints or ranges."""
    ranges = [x for x in (seed, *keys) if not isinstance(x, int)]
    rows = len(ranges[0]) if ranges else 1
    pick = lambda x, k: x if isinstance(x, int) else x[k]  # noqa: E731
    return [substream(pick(seed, k), *(pick(key, k) for key in keys)) for k in range(rows)]


@pytest.fixture
def serial_draws(monkeypatch):
    """Run the draws of verify, compare and slice_probes through the serial loop."""
    for module in (verify, connection):
        monkeypatch.setattr(module, "substream_states", _serial_streams)
        monkeypatch.setattr(module, "_draw_rows", _serial_draw_rows)


def _east_of(calls, x_floor=-math.inf):
    """The closed form on pairs whose second base point has x > 0, counting
    the pairs its domain checks, so that every draw check rejects about half
    its draws.  An ``x_floor`` also leaves out q1.x <= x_floor, which is not
    invariant under the group (the section values, with x = 0, stay in), so
    that checks of moved pairs reject draws too."""
    project = hopf_closed_form().bundle.project_rows
    return closed_form_where(lambda q0, q1: (project(q1)[1] > 0) & (q1[1] > x_floor),
                             checked=calls)


class TestRowDraws:
    """The row loop against the serial loop on draws rejected at every check."""

    def _both(self, request, run, **options):
        calls = []
        rows = run(_east_of(calls, **options))
        row_calls = sum(calls)
        request.getfixturevalue("serial_draws")
        calls.clear()
        return rows, run(_east_of(calls, **options)), row_calls, sum(calls)

    def test_check_axioms_matches_the_serial_draws(self, request, monkeypatch):
        # every draw check of every axiom rejects some draws
        rejecting = set()

        def watched(axiom, position, check):
            def run(targets, drawn):
                held = check(targets, drawn)
                if not held.all():
                    rejecting.add((axiom, position))
                return held
            return run

        axioms = {axiom: spec._replace(steps=tuple(
                      (kind, check and watched(axiom, position, check))
                      for position, (kind, check) in enumerate(spec.steps)))
                  for axiom, spec in verify._AXIOMS.items()}
        monkeypatch.setattr(verify, "_AXIOMS", axioms)
        # 300 samples: a full round of 256 and a partial one
        rows, serial, row_calls, serial_calls = self._both(
            request, lambda form: check_axioms(form, SampleConfig(seed=11, n_samples=300)),
            x_floor=-0.5)
        assert rows.to_json() == serial.to_json()
        assert row_calls == serial_calls
        assert rejecting == {(axiom, position) for axiom, spec in axioms.items()
                             for position, (_, check) in enumerate(spec.steps) if check}

    def test_compare_matches_the_serial_draws(self, request):
        rows, serial, row_calls, serial_calls = self._both(
            request, lambda form: compare_forms(hopf_closed_form(), form,
                                                SampleConfig(seed=12, n_samples=400)))
        assert rows.to_json() == serial.to_json()
        assert row_calls == serial_calls

    def test_slice_probes_match_the_serial_draws(self, request, hopf):
        points = [hopf.sample_point(substream(13, k)) for k in range(5)]
        rows, serial, row_calls, serial_calls = self._both(
            request, lambda form: slice_probes(form, points, 6, seed=13))
        assert rows == serial
        assert row_calls == serial_calls

    def test_nowhere_domain_exhausts_as_the_serial_draws(self, request):
        for serial in (False, True):
            if serial:
                request.getfixturevalue("serial_draws")
            nowhere = closed_form_where(lambda q0, q1: False)
            with pytest.raises(ProbeFailed, match=re.escape("exhausted (normalization)")):
                check_axioms(nowhere, SampleConfig(seed=1, n_samples=10))
            with pytest.raises(EmptyDomainIntersection, match="no draw for sample 0 "):
                compare_forms(hopf_closed_form(), nowhere, SampleConfig(seed=1, n_samples=10))


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

    @pytest.mark.parametrize("axiom,entries", [
        ("roundtrip_form", (_point(0.3, 0.1), _plane_point(0.2, 0.4, 0.5))),
        ("roundtrip_form", (_plane_point(0.3, -0.2, 0.1), _point(0.2, 0.5))),
        ("roundtrip_lift", (_plane_point(0.3, -0.2, 0.1), _base(0.2))),
        ("lift_section", (_plane_point(0.3, -0.2, 0.1), {"base": [0.2, 0.4, 0.6]})),
    ])
    def test_recorded_input_of_the_wrong_dimension_raises(self, plane_bundle, axiom,
                                                          entries):
        form = trivial_form_from_C(plane_bundle, make_c_function("linear", (0.5, -1.0), 2))
        with pytest.raises(ValueError, match="expected 2 base coordinates"):
            violation_from_record(form, axiom, _args(*entries))

    @pytest.mark.parametrize("axiom,entries,message", [
        ("roundtrip_form", ({"point": [1.0, 0.0, 0.0]}, {"point": [0.6, 0.8, 0.0, 0.0]}),
         "expected 4 point components, got 3"),
        ("roundtrip_form", ({"point": [1.0, 0.0, 0.0, 0.0]}, {"point": [0.6, 0.8, 0, 0, 0]}),
         "expected 4 point components, got 5"),
        ("lift_section", ({"point": [1.0, 0.0, 0.0, 0.0]}, {"base": [1.0, 0.0]}),
         "expected 3 base components, got 2"),
    ])
    def test_recorded_hopf_input_of_the_wrong_length_raises(self, axiom, entries, message):
        with pytest.raises(ValueError, match=message):
            violation_from_record(hopf_closed_form(), axiom, _args(*entries))


class TestDomainControls:
    def test_non_invariant_domain_reports_its_failures(self):
        # the diagonal (q, q) with q.w <= -0.9 is outside: normalization's
        # draw check redraws it, and the two domain axioms count it
        form = closed_form_where(lambda q0, q1: q1[0] > -0.9)
        report = check_axioms(form, SampleConfig(seed=1, n_samples=300))
        assert report.verdict == "fail"
        assert {a.axiom_id: a.failures for a in report.axioms if a.failures} == {
            "diagonal_domain": 11, "domain_invariance": 5}

    def test_diagonal_excluding_domain_exhausts_the_normalization_draw(self):
        form = closed_form_where(lambda q0, q1: (q0 != q1).any(axis=0))
        with pytest.raises(ProbeFailed, match=re.escape("(normalization)")):
            check_axioms(form, SampleConfig(seed=1, n_samples=10))

    @pytest.mark.parametrize("extra,axiom,inputs", [
        (lambda q0, q1: True, "roundtrip_form", (ONE, J_POINT)),
        # -i is the base point of j, the one the section chart excludes
        (lambda q0, q1: True, "lift_section", (ONE, -I_BASE)),
        (lambda q0, q1: (q0 != q1).any(axis=0), "normalization", (ONE,)),
    ])
    def test_recorded_input_outside_the_domain_raises(self, hopf, extra, axiom, inputs):
        steps = verify._AXIOMS[axiom].steps
        record = verify._serialize_inputs(
            hopf, steps, [hopf.rows_of(kind, [v]) for (kind, _), v in zip(steps, inputs)])
        with pytest.raises(OutOfDomain, match=f"recorded {axiom} input"):
            violation_from_record(closed_form_where(extra), axiom, record)


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
        cap = closed_form_where(lambda q0, q1: q1[0] > 0)
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

    def test_empty_intersection(self):
        nowhere = closed_form_where(lambda q0, q1: False)
        with pytest.raises(EmptyDomainIntersection):
            compare_forms(hopf_closed_form(), nowhere, SampleConfig(seed=1, n_samples=10))

    def test_partial_intersection_names_the_uncovered_sample(self):
        # most samples find a pair in the small cap, but one whose every
        # draw misses it fails the comparison instead of being dropped
        cap = closed_form_where(lambda q0, q1: q0[0] > 0.9)
        with pytest.raises(EmptyDomainIntersection, match=r"sample \d+"):
            compare_forms(hopf_closed_form(), cap, SampleConfig(seed=1, n_samples=200))


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


def _scalar_fold(blocks, tol):
    """The fold one sample at a time: the failure count, and the worst
    (violation, sample index) as max() picks it over every sample."""
    failures, worst = 0, None
    for i, v in enumerate(v for block in blocks for v in block):
        failures += not v <= tol
        if worst is None or v > worst[0]:
            worst = (v, i)
    return failures, worst


NAN = math.nan


class TestWorstFold:
    @pytest.mark.parametrize("blocks", [
        [[NAN, 1.0, 2.0], [3.0, 0.5, 0.7]],     # a NaN as the first sample wins
        [[1.0, NAN, 2.0], [NAN, 2.0, 0.1]],     # a later NaN never does; ties keep the first
        [[0.5, 0.5, 0.25], [0.5]],              # ties within and across blocks
        [[0.25, 0.75, 0.7], [NAN, NAN, NAN]],   # a later block of NaN only
        [[-0.0, 0.0, -0.0], [0.0, 0.0]],        # signed zeros compare equal
        [[NAN, NAN, NAN], [1.0, 2.0]],          # the first block NaN only
    ])
    def test_check_axioms_folds_violation_rows_as_max(self, monkeypatch, blocks):
        # normalization's violations replaced by the blocks, one per round
        rounds = iter(blocks)

        def violations(form, inputs):
            yield []
            return np.array(next(rounds))

        monkeypatch.setattr(verify, "AXIOM_IDS", ("normalization",))
        monkeypatch.setattr(verify, "_ROUND_SAMPLES", len(blocks[0]))
        monkeypatch.setattr(verify, "_AXIOMS", {"normalization": verify._AXIOMS[
            "normalization"]._replace(violations=violations)})
        form = hopf_closed_form()
        cfg = SampleConfig(seed=4, n_samples=sum(map(len, blocks)), tolerance=0.6)
        record = check_axioms(form, cfg).axiom("normalization")
        failures, (value, index) = _scalar_fold(blocks, 0.6)
        assert record.failures == failures
        assert repr(record.max_violation) == repr(value)
        worst = form.bundle.sample_point(substream(4, 0, index))
        assert record.worst_input == {"arg0": {"point": form.bundle.describe_point(worst)}}

    def test_worst_index_matches_max_on_random_blocks(self):
        rng = np.random.default_rng(5)
        for _ in range(3000):
            blocks = [rng.choice([0.0, -0.0, 1.0, 2.0, NAN], size=rng.integers(1, 5))
                      for _ in range(rng.integers(1, 4))]
            worst, start = None, 0
            for block in blocks:
                k = verify._worst_index(None if worst is None else worst[0], block)
                if k is not None:
                    worst = (float(block[k]), start + k)
                start += len(block)
            _, (value, index) = _scalar_fold(blocks, 0.0)
            assert (repr(worst[0]), worst[1]) == (repr(float(value)), index)


def test_rounds_build_no_circle_elements_or_unit_quaternions(monkeypatch, line_bundle):
    # a 1,000-sample run builds values only for the worst inputs it reports
    built = {CircleElement: 0, UnitQuaternion: 0}
    for cls in built:
        def counting(self, *args, _init=cls.__init__, _cls=cls):
            built[_cls] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    for form in (hopf_closed_form(),
                 trivial_form_from_C(line_bundle, make_c_function("linear", (0.5,), 1))):
        built.update(dict.fromkeys(built, 0))
        check_axioms(form, SampleConfig(seed=5, n_samples=1000))
        assert built[CircleElement] < 100 and built[UnitQuaternion] < 100, built
