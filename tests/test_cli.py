import json

import pytest

from disconn import HopfBundle, ProbeFailed, slice_probe
from disconn import cli
from disconn.cli import run_cli
from disconn.rng import substream
from disconn.verify import CSV_HEADER

from conftest import closed_form_broken_at


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--bundle", "hopf", "--form", "closed",
                           "--seed", "42", "--samples", "50")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert data["bundle"] == "hopf"
        assert data["form_provenance"] == "closed-form"
        assert data["seed"] == 42

    @pytest.mark.parametrize("steps, samples, seed", [("32", "30", "42"),
                                                      ("16", "40", "13")])
    def test_lmw_fails_exit_one(self, capsys, steps, samples, seed):
        code, out, _ = run(capsys, "verify", "--bundle", "hopf", "--form", "lmw",
                           "--steps", steps, "--samples", samples, "--seed", seed)
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

    def test_tolerance_override_never_certifies_the_variant(self, capsys):
        # its 40 properness records are each a pair over antipodal base
        # points inside the domain: a 1, which fails at any tolerance
        code, out, _ = run(capsys, "verify", "--bundle", "hopf", "--form", "lmw",
                           "--steps", "16", "--samples", "40", "--seed", "13",
                           "--tolerance", "4")
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "fail"
        failures = {a["id"]: a["failures"] for a in data["axioms"]}
        assert failures["domain_properness"] == 40

    def test_trivial_linear(self, capsys):
        code, out, _ = run(capsys, "verify", "--bundle", "trivial", "--form",
                           "trivial-c", "--c-family", "linear", "--c-params", "0.5",
                           "--samples", "50", "--seed", "7")
        assert code == 0
        assert json.loads(out)["bundle"] == "trivial-r1"

    def test_output_file_reproducible(self, capsys, tmp_path):
        target_a = tmp_path / "a.json"
        target_b = tmp_path / "b.json"
        for target in (target_a, target_b):
            code, _, _ = run(capsys, "verify", "--bundle", "hopf", "--form", "closed",
                             "--seed", "9", "--samples", "40", "-o", str(target))
            assert code == 0
        assert target_a.read_bytes() == target_b.read_bytes()

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("DISCONN_SEED", "123")
        code, out, _ = run(capsys, "verify", "--bundle", "hopf", "--form", "closed",
                           "--samples", "20")
        assert code == 0
        assert json.loads(out)["seed"] == 123

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("DISCONN_SEED", "not-a-number")
        code, _, err = run(capsys, "verify", "--bundle", "hopf", "--form", "closed",
                           "--samples", "20")
        assert code == 2
        assert "DISCONN_SEED" in err


class TestUsageErrors:
    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--bundle", "hopf", "--form", "closed",
                         "--no-such-flag")
        assert code == 2

    def test_form_bundle_mismatch(self, capsys):
        code, _, err = run(capsys, "verify", "--bundle", "trivial", "--form", "closed",
                           "--samples", "10")
        assert code == 2
        assert "not available" in err

    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_bad_grid(self, capsys):
        code, _, _ = run(capsys, "sweep", "--grid", "zero:one:two")
        assert code == 2

    def test_nan_tolerance_rejected(self, capsys):
        # the known non-connection must never be certified by a NaN tolerance
        code, out, err = run(capsys, "verify", "--bundle", "hopf", "--form", "lmw",
                             "--samples", "40", "--tolerance", "nan")
        assert code == 2
        assert out == ""
        assert "tolerance" in err

    def test_zero_samples_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--bundle", "hopf", "--form", "closed",
                             "--samples", "0")
        assert code == 2
        assert out == ""
        assert "n_samples" in err

    def test_zero_steps_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--bundle", "hopf", "--form", "geodesic",
                           "--steps", "0", "--samples", "5")
        assert code == 2
        assert "steps" in err

    @pytest.mark.parametrize("steps", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ("verify", "--bundle", "hopf", "--form", "closed"),
        ("compare", "--bundle", "hopf", "--form-a", "closed", "--form-b", "closed"),
        ("slice-probe", "--bundle", "hopf", "--form", "closed", "--points", "1",
         "--budget", "1"),
        ("sweep",),
    ])
    def test_steps_below_one_rejected_by_every_subcommand(self, capsys, argv, steps):
        # the closed form never reads --steps; the size is rejected anyway,
        # so a command line is valid or not whatever form it names
        code, out, err = run(capsys, *argv, "--steps", steps)
        assert code == 2
        assert out == ""
        assert "--steps" in err

    def test_zero_budget_rejected(self, capsys):
        code, out, err = run(capsys, "slice-probe", "--bundle", "hopf", "--form",
                             "closed", "--points", "1", "--budget", "0")
        assert code == 2
        assert out == ""
        assert "--budget" in err

    def test_probe_that_compares_nothing_fails_as_strict_json(self, capsys):
        # the one orbit sample falls inside the exclusion radius, so the
        # point has no separation to report and does not pass
        def reject(constant):
            raise ValueError(f"non-finite number {constant}")

        code, out, _ = run(capsys, "slice-probe", "--bundle", "hopf", "--form",
                           "geodesic", "--points", "1", "--steps", "128",
                           "--budget", "1", "--seed", "1764603822")
        assert code == 1
        data = json.loads(out, parse_constant=reject)
        assert data["verdict"] == "fail"
        assert data["points"][0]["min_separation"] is None
        assert data["points"][0]["passed"] is False

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_probe_point_count_below_one_rejected(self, capsys, points):
        code, out, err = run(capsys, "slice-probe", "--bundle", "hopf", "--form",
                             "closed", "--points", points)
        assert code == 2
        assert out == ""
        assert "--points" in err

    def test_negative_budget_rejected(self, capsys):
        code, out, err = run(capsys, "slice-probe", "--bundle", "hopf", "--form",
                             "closed", "--points", "1", "--budget", "-1")
        assert code == 2
        assert out == ""
        assert "--budget" in err

    def test_zero_dimension_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--bundle", "trivial", "--form",
                             "trivial-c", "--dim", "0", "--samples", "5")
        assert code == 2
        assert out == ""
        assert "dimension" in err

    @pytest.mark.parametrize("box", ["nan", "inf", "0", "-1", "1e308"])
    def test_box_not_finite_and_positive_rejected(self, capsys, box):
        code, out, err = run(capsys, "verify", "--bundle", "trivial", "--form",
                             "trivial-c", "--c-family", "linear", "--box", box,
                             "--samples", "5")
        assert code == 2
        assert out == ""
        assert "--box" in err

    def test_dimension_too_large_for_a_float_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--bundle", "trivial", "--form",
                             "trivial-c", "--dim", str(10 ** 400), "--samples", "5")
        assert code == 2
        assert out == ""
        assert "--box" in err

    def test_dimension_above_the_cap_rejected_before_a_point_is_built(
            self, capsys, monkeypatch):
        def no_bundle(dim):
            raise AssertionError(f"built a bundle of dimension {dim}")

        monkeypatch.setattr(cli, "TrivialBundle", no_bundle)
        code, out, err = run(capsys, "verify", "--bundle", "trivial", "--form",
                             "trivial-c", "--dim", str(10 ** 9), "--samples", "5")
        assert code == 2
        assert out == ""
        assert err == f"error: --dim must be at most {cli._MAX_DIM}, got {10 ** 9}\n"

    def test_dimension_at_the_cap_runs(self, capsys):
        code, out, _ = run(capsys, "verify", "--bundle", "trivial", "--form",
                           "trivial-c", "--dim", str(cli._MAX_DIM), "--samples", "1")
        assert code == 0
        assert json.loads(out)["bundle"] == f"trivial-r{cli._MAX_DIM}"

    @pytest.mark.parametrize("separation", ["nan", "inf", "0", "-1"])
    def test_probe_separation_not_finite_and_positive_rejected(self, capsys, separation):
        # nan and inf cannot be written as strict JSON; a threshold of zero
        # or below passes every probe
        code, out, err = run(capsys, "slice-probe", "--bundle", "hopf", "--form",
                             "closed", "--points", "1", "--budget", "2",
                             "--separation", separation)
        assert code == 2
        assert out == ""
        assert "--separation" in err

    @pytest.mark.parametrize("weight", ["nan", "inf", "1e308"])
    def test_non_finite_c_weight_rejected(self, capsys, weight):
        code, out, err = run(capsys, "verify", "--bundle", "trivial", "--form",
                             "trivial-c", "--c-family", "linear", "--c-params", weight,
                             "--samples", "5")
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("params", ["nan", "1,2,3"])
    @pytest.mark.parametrize("argv", [
        ("verify", "--form", "trivial-c", "--c-params"),
        ("compare", "--form-a", "trivial-c", "--form-b", "trivial-c", "--c-params-a"),
    ], ids=["verify", "compare"])
    def test_constant_c_params_rejected(self, capsys, argv, params):
        # the constant family has no parameters, so none may be given to it
        code, out, err = run(capsys, argv[0], "--bundle", "trivial", *argv[1:], params,
                             "--samples", "5")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "takes no parameters" in err

    @pytest.mark.parametrize("argv, flag", [
        (("verify", "--form", "closed", "--c-family", "linear", "--c-params", "nan",
          "--samples", "5", "--seed", "1"), "--c-family"),
        (("verify", "--form", "geodesic", "--c-params", "0.5", "--samples", "5"),
         "--c-params"),
        (("slice-probe", "--form", "closed", "--c-params", "1,2", "--points", "1",
          "--budget", "2"), "--c-params"),
        (("compare", "--form-a", "closed", "--form-b", "geodesic", "--c-family-a",
          "linear", "--c-params-a", "nan", "--steps", "8", "--samples", "5"),
         "--c-family-a"),
        (("compare", "--form-a", "closed", "--form-b", "lmw", "--c-params-b", "1",
          "--steps", "8", "--samples", "5"), "--c-params-b"),
    ], ids=["verify-family", "verify-params", "slice-probe", "compare-a", "compare-b"])
    def test_c_options_rejected_by_forms_that_ignore_them(self, capsys, argv, flag):
        # a Hopf form reads no C function, so a C option given to it would
        # change nothing in the report it names
        code, out, err = run(capsys, argv[0], "--bundle", "hopf", *argv[1:])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.endswith(f"does not read {flag}\n")

    @pytest.mark.parametrize("box", ["nan", "1e160"])
    def test_probe_box_rejected(self, capsys, box):
        code, _, err = run(capsys, "slice-probe", "--bundle", "trivial", "--form",
                           "trivial-c", "--points", "1", "--budget", "2", "--box", box)
        assert code == 2
        assert "--box" in err

    def test_overlong_grid_rejected_before_it_is_built(self, capsys):
        code, out, err = run(capsys, "sweep", "--grid", "0:1:1e-12")
        assert code == 2
        assert out == ""
        assert "more than" in err

    @pytest.mark.parametrize("grid", ["0:inf:1", "0:0.5:1e-320", "-1e308:1e308:1"])
    def test_non_finite_grid_rejected(self, capsys, grid):
        code, _, err = run(capsys, "sweep", "--grid", grid)
        assert code == 2
        assert "finite" in err


class TestSweepCommand:
    def test_default_grid_row_count(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--grid", "-0.7:0.7:0.05", "--steps", "64",
                         "-o", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 30  # header plus 29 grid rows

    def test_clipping_warns(self, capsys):
        code, out, err = run(capsys, "sweep", "--grid", "-1.0:1.0:0.5",
                             "--steps", "32")
        assert code == 0
        assert "clipped" in err
        assert out.splitlines()[0] == CSV_HEADER

    def test_reproducible_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert run(capsys, "sweep", "--grid", "-0.2:0.2:0.1", "--steps", "64",
                       "-o", str(target))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestCompareCommand:
    def test_geodesic_vs_closed(self, capsys):
        code, out, _ = run(capsys, "compare", "--bundle", "hopf",
                           "--form-a", "geodesic", "--form-b", "closed",
                           "--steps", "64", "--samples", "40", "--seed", "42")
        assert code == 0
        data = json.loads(out)
        assert data["max_deviation"] <= 1e-6

    def test_trivial_families_differ(self, capsys):
        code, out, _ = run(capsys, "compare", "--bundle", "trivial",
                           "--form-a", "trivial-c", "--form-b", "trivial-c",
                           "--c-family-a", "constant", "--c-family-b", "linear",
                           "--c-params-b", "1.0", "--samples", "50", "--seed", "3")
        assert code == 0
        assert json.loads(out)["max_deviation"] > 0.1


class TestSliceProbeCommand:
    def test_closed_form_passes(self, capsys):
        code, out, _ = run(capsys, "slice-probe", "--bundle", "hopf", "--form",
                           "closed", "--points", "3", "--budget", "16",
                           "--seed", "42")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert len(data["points"]) == 3

    def test_variant_cannot_be_probed(self, capsys):
        code, out, err = run(capsys, "slice-probe", "--bundle", "hopf", "--form",
                             "lmw", "--points", "1", "--steps", "64", "--budget", "4",
                             "--seed", "3")
        assert code == 2
        assert out == ""
        assert "not equivariant along that fiber" in err

    def test_later_point_failure_exits_two_with_its_one_line_message(
            self, capsys, monkeypatch):
        # the third point's slice is not horizontal; every point is probed
        # in one batch, and the run stops with that point's own message
        rng = substream(42, 0x9048)
        points = [HopfBundle().sample_point(rng) for _ in range(3)]
        form = closed_form_broken_at(points[2])
        with pytest.raises(ProbeFailed) as alone:
            slice_probe(form, points[2], 4, seed=42 + 2)
        monkeypatch.setattr(cli, "hopf_closed_form", lambda: form)
        code, out, err = run(capsys, "slice-probe", "--bundle", "hopf", "--form",
                             "closed", "--points", "3", "--budget", "4", "--seed", "42")
        assert code == 2
        assert out == ""
        assert err == f"error: {alone.value}\n"

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "slice-probe", "--bundle", "trivial", "--form",
                           "trivial-c", "--points", "2", "--budget", "8",
                           "--seed", "1", "--format", "text")
        assert code == 0
        assert "verdict: pass" in out
