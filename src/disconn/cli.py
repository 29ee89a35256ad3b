"""Command-line entry point.

Subcommands: ``verify`` (axiom certification), ``compare`` (two forms on
shared samples), ``sweep`` (counterexample table as CSV) and
``slice-probe`` (slice/orbit separation at random points).

Exit codes: 0 on success/pass, 1 when a verification fails (axiom
verdict ``fail`` or a probe below threshold), 2 on usage or
configuration errors, including sizes that would make a run vacuous or
undefined (``--steps``, ``--points`` or ``--budget`` below 1, a
``--box`` not above 0 or whose squared diameter (2 box)^2 dim overflows,
a non-finite or non-positive ``--separation``, ``--dim`` below 1, a
non-finite ``--c-params`` weight, a theta grid of more than 10,000
values or of a non-finite step count).  Reports are strict JSON; a
probed point that compared nothing has ``min_separation`` ``null`` and
fails.  The environment variable DISCONN_SEED supplies the default seed.
Identical invocations write byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from . import __version__
from .bundle import HopfBundle, TrivialBundle
from .connection import make_c_function, slice_probe, trivial_form_from_C
from .errors import DisconnError
from .riemannian import hopf_closed_form, lmw_form, riemannian_form
from .rng import substream
from .verify import SampleConfig, check_axioms, compare_forms, counterexample_sweep

_HOPF_FORMS = ("closed", "geodesic", "lmw")
_TRIVIAL_FORMS = ("trivial-c",)
#: longest theta grid ``sweep`` accepts
_MAX_GRID_POINTS = 10_000


class UsageError(Exception):
    """Configuration problem reported with a one-line reason and exit 2."""


def _default_seed() -> int:
    raw = os.environ.get("DISCONN_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"DISCONN_SEED must be an integer, got {raw!r}") from None


def _parse_params(raw: Optional[str]) -> tuple[float, ...]:
    if not raw:
        return ()
    try:
        return tuple(float(p) for p in raw.split(","))
    except ValueError:
        raise UsageError(f"could not parse parameter list {raw!r}") from None


def _build_bundle(args):
    if args.bundle == "hopf":
        return HopfBundle()
    return TrivialBundle(args.dim)


def _build_form(args, bundle, which: str = ""):
    form_name = getattr(args, f"form{which}")
    family = getattr(args, f"c_family{which}", None) or "constant"
    params = _parse_params(getattr(args, f"c_params{which}", None))
    if isinstance(bundle, HopfBundle):
        if form_name not in _HOPF_FORMS:
            raise UsageError(f"form {form_name!r} is not available on the hopf bundle")
        if form_name == "closed":
            return hopf_closed_form()
        if form_name == "geodesic":
            return riemannian_form(args.steps)
        return lmw_form(args.steps)
    if form_name not in _TRIVIAL_FORMS:
        raise UsageError(f"form {form_name!r} is not available on trivial bundles")
    return trivial_form_from_C(bundle, make_c_function(family, params, bundle.dim))


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _add_common(parser: argparse.ArgumentParser, *, forms: bool = True) -> None:
    parser.add_argument("--bundle", choices=("hopf", "trivial"), required=True)
    parser.add_argument("--dim", type=int, default=1,
                        help="base dimension of the trivial bundle")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--steps", type=int, default=256,
                        help="integrator steps for geodesic and lmw forms")
    parser.add_argument("--box", type=float, default=2.0,
                        help="half-width of the sampling box on flat bases")
    parser.add_argument("-o", "--output", default=None)
    if forms:
        parser.add_argument("--c-family", choices=("constant", "linear"),
                            default="constant")
        parser.add_argument("--c-params", default=None,
                            help="comma-separated parameters of the C family")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disconn",
        description="Discrete connections on principal circle bundles: "
                    "verify axioms, compare constructions, reproduce the "
                    "counterexample sweep.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="certify connection-form axioms")
    _add_common(p_verify)
    p_verify.add_argument("--form", choices=_HOPF_FORMS + _TRIVIAL_FORMS,
                          required=True)
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--tolerance", type=float, default=None,
                          help="override every axiom tolerance")
    p_verify.add_argument("--format", choices=("json", "text"), default="json")

    p_compare = sub.add_parser("compare", help="compare two forms on shared samples")
    _add_common(p_compare, forms=False)
    p_compare.add_argument("--form-a", choices=_HOPF_FORMS + _TRIVIAL_FORMS,
                           required=True)
    p_compare.add_argument("--form-b", choices=_HOPF_FORMS + _TRIVIAL_FORMS,
                           required=True)
    for side in ("a", "b"):
        p_compare.add_argument(f"--c-family-{side}", choices=("constant", "linear"),
                               default="constant")
        p_compare.add_argument(f"--c-params-{side}", default=None)
    p_compare.add_argument("--samples", type=int, default=1000)
    p_compare.add_argument("--format", choices=("json", "text"), default="json")

    p_sweep = sub.add_parser("sweep", help="counterexample table over a theta grid")
    p_sweep.add_argument("--grid", default="-0.7:0.7:0.05",
                         help="start:stop:step, clipped to (-pi/4, pi/4)")
    p_sweep.add_argument("--steps", type=int, default=256)
    p_sweep.add_argument("-o", "--output", default=None)
    p_sweep.add_argument("--format", choices=("csv", "text"), default="csv")

    p_probe = sub.add_parser("slice-probe",
                             help="slice/orbit separation at random points")
    _add_common(p_probe)
    p_probe.add_argument("--form", choices=_HOPF_FORMS + _TRIVIAL_FORMS,
                         required=True)
    p_probe.add_argument("--points", type=int, default=10)
    p_probe.add_argument("--budget", type=int, default=32)
    p_probe.add_argument("--separation", type=float, default=1e-2)
    p_probe.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _parse_grid(raw: str) -> list[float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:step, got {raw!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"grid must contain numbers, got {raw!r}") from None
    if step <= 0:
        raise UsageError("grid step must be positive")
    if not all(math.isfinite(v) for v in (start, stop, step, (stop - start) / step)):
        raise UsageError(f"grid bounds, step and step count must be finite, got {raw!r}")
    span = round((stop - start) / step)
    if span < 0:
        raise UsageError("grid is empty")
    if span >= _MAX_GRID_POINTS:
        raise UsageError(f"grid has {span + 1:g} values, more than {_MAX_GRID_POINTS}")
    return [start + k * step for k in range(int(span) + 1)]


def _check_sizes(args) -> None:
    """Reject a step count, box, probe count, budget or separation that would
    make a run vacuous or undefined."""
    if args.steps < 1:
        raise UsageError(f"--steps must be at least 1, got {args.steps}")
    box = getattr(args, "box", 1.0)
    try:  # products, so that a float overflow reads inf instead of raising
        squared_diameter = (2.0 * box) * (2.0 * box) * getattr(args, "dim", 1)
    except OverflowError:  # a --dim too large to convert to a float
        squared_diameter = math.inf
    if not (math.isfinite(squared_diameter) and box > 0):
        raise UsageError(f"--box must be above 0 with a finite squared diameter "
                         f"(2 box)^2 dim, got {box}")
    if getattr(args, "points", 1) < 1:
        raise UsageError(f"--points must be at least 1, got {args.points}")
    if getattr(args, "budget", 1) < 1:
        raise UsageError(f"--budget must be at least 1, got {args.budget}")
    separation = getattr(args, "separation", 1.0)
    if not (math.isfinite(separation) and separation > 0):
        raise UsageError(f"--separation must be finite and above 0, got {separation}")


def _cmd_verify(args) -> int:
    bundle = _build_bundle(args)
    form = _build_form(args, bundle)
    tolerances = None
    if args.tolerance is not None:
        from .verify import AXIOM_IDS
        tolerances = {a: args.tolerance for a in AXIOM_IDS}
    cfg = SampleConfig(seed=args.seed, n_samples=args.samples,
                       tolerances=tolerances, box=args.box)
    report = check_axioms(form, cfg)
    _emit(report.to_json() if args.format == "json" else report.to_text(),
          args.output)
    return 0 if report.verdict == "pass" else 1


def _cmd_compare(args) -> int:
    bundle = _build_bundle(args)
    form_a = _build_form(args, bundle, which="_a")
    form_b = _build_form(args, bundle, which="_b")
    cfg = SampleConfig(seed=args.seed, n_samples=args.samples, box=args.box)
    comparison = compare_forms(form_a, form_b, cfg)
    _emit(comparison.to_json() if args.format == "json" else comparison.to_text(),
          args.output)
    return 0


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    limit = math.pi / 4.0
    kept = [t for t in grid if -limit < t < limit]
    if len(kept) < len(grid):
        sys.stderr.write(
            f"warning: clipped {len(grid) - len(kept)} grid value(s) outside "
            f"(-pi/4, pi/4)\n")
    if not kept:
        raise UsageError("grid has no values inside (-pi/4, pi/4)")
    result = counterexample_sweep(kept, steps=args.steps)
    _emit(result.to_csv() if args.format == "csv" else result.to_text(),
          args.output)
    return 0


def _cmd_slice_probe(args) -> int:
    bundle = _build_bundle(args)
    form = _build_form(args, bundle)
    rng = substream(args.seed, 0x9048)
    results = []
    all_passed = True
    for index in range(args.points):
        point = bundle.sample_point(rng, box=args.box)
        report = slice_probe(form, point, args.budget,
                             separation=args.separation,
                             seed=args.seed + index, box=args.box)
        all_passed = all_passed and report.passed
        results.append({
            "point": bundle.describe_point(point),
            # a probe that compared nothing has no separation to report
            "min_separation": (report.min_separation
                               if math.isfinite(report.min_separation) else None),
            "slice_samples": report.slice_samples,
            "orbit_samples": report.orbit_samples,
            "passed": report.passed,
        })
    payload = {
        "artifact_version": __version__,
        "bundle": bundle.name,
        "form_provenance": form.provenance,
        "seed": args.seed,
        "budget": args.budget,
        "separation": args.separation,
        "points": results,
        "verdict": "pass" if all_passed else "fail",
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, allow_nan=False), args.output)
    else:
        lines = [f"bundle={bundle.name} form={form.provenance} seed={args.seed}"]
        for r in results:
            lines.append(f"  min_separation={r['min_separation']!r} "
                         f"passed={r['passed']}")
        lines.append(f"verdict: {payload['verdict']}")
        _emit("\n".join(lines), args.output)
    return 0 if all_passed else 1


def _merge_grid_value(argv: list) -> list:
    # argparse mistakes a leading-dash grid like "-0.7:0.7:0.05" for an
    # option; splice it into --grid=... form
    out = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token == "--grid" and i + 1 < len(argv):
            out.append(f"--grid={argv[i + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def run_cli(argv: Optional[list] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_grid_value(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        _check_sizes(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_slice_probe(args)
    except (UsageError, DisconnError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
