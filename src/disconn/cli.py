"""Command-line entry point.

Subcommands: ``verify`` (axiom certification), ``compare`` (two forms on
shared samples), ``sweep`` (counterexample table as CSV) and
``slice-probe`` (slice/orbit separation at random points).

Exit codes: 0 on success/pass, 1 when a verification fails (axiom
verdict ``fail`` or a probe below threshold), 2 on usage or
configuration errors, including sizes that would make a run vacuous,
undefined or unbounded (``--steps``, ``--points`` or ``--budget`` below
1, a ``--box`` not above 0 or whose squared diameter (2 box)^2 dim
overflows, a non-finite or non-positive ``--separation``, ``--dim``
below 1 or above 1,000, a non-finite ``--c-params`` weight, a theta grid
of more than 10,000 values or of a non-finite step count), a non-finite
``--tolerance``, any ``--c-params`` for the constant family and an option
given to a form that does not read it (``_FORMS`` names what each reads).
Reports are strict JSON, and a probed point compares its whole budget.
The environment variable DISCONN_SEED supplies the default seed.  Every
other default is the library's own.  Identical invocations write
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from . import __version__
from .bundle import DEFAULT_BOX, TrivialBundle
from .connection import (C_FAMILIES, DEFAULT_SEPARATION, make_c_function, slice_probes,
                          trivial_form_from_C)
from .errors import DisconnError
from .riemannian import DEFAULT_STEPS, hopf_closed_form, lmw_form, riemannian_form
from .rng import substream
from .verify import SampleConfig, check_axioms, compare_forms, counterexample_sweep

#: form name -> (the bundle it lives on, the options it reads, its factory of the
#: parsed arguments and its side's C family and parameters)
_FORMS = {
    "closed": ("hopf", (), lambda args, *_: hopf_closed_form()),
    "geodesic": ("hopf", ("steps",), lambda args, *_: riemannian_form(args.steps)),
    "lmw": ("hopf", ("steps",), lambda args, *_: lmw_form(args.steps)),
    "trivial-c": ("trivial", ("box", "dim", "c-family", "c-params"),
                  lambda args, family, params: trivial_form_from_C(
                      TrivialBundle(args.dim),
                      make_c_function(family or C_FAMILIES[0], _parse_params(params), args.dim))),
}
#: the library default of each option that every side of a command shares
_DEFAULTS = {"steps": DEFAULT_STEPS, "box": DEFAULT_BOX, "dim": TrivialBundle.dim}
#: longest theta grid ``sweep`` accepts
_MAX_GRID_POINTS = 10_000
#: largest ``--dim`` accepted: every sampled trivial-bundle point holds dim coordinates
_MAX_DIM = 1_000


class UsageError(Exception):
    """Configuration problem reported with a one-line reason and exit 2."""


def _default_seed() -> int:
    raw = os.environ.get("DISCONN_SEED")
    if raw is None:
        return SampleConfig.seed
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


def _build_form(args, side: str = ""):
    """The form named by ``--form{side}``, from options :func:`_resolve_options` passed."""
    dest = side.replace("-", "_")
    return _FORMS[getattr(args, f"form{dest}")][2](
        args, getattr(args, f"c_family{dest}"), getattr(args, f"c_params{dest}"))


def _resolve_options(args) -> None:
    """Refuse a form off its bundle and a given option that no form it serves
    reads, then fill in the defaults: ``--steps``, ``--box`` and ``--dim``
    serve every side of a command, the C options their own side."""
    sides = ("-a", "-b") if args.command == "compare" else ("",)
    names = [getattr(args, "form" + side.replace("-", "_")) for side in sides]
    for side, name in zip(sides, names):
        on, reads, _ = _FORMS[name]
        if on != args.bundle:
            raise UsageError(f"form {name!r} is not available on the {args.bundle} bundle")
        for option in ("c-family", "c-params"):
            if getattr(args, f"{option}{side}".replace("-", "_")) is not None \
                    and option not in reads:
                raise UsageError(f"form {name!r} does not read --{option}{side}")
    for option, default in _DEFAULTS.items():
        if getattr(args, option) is None:
            setattr(args, option, default)
        elif not any(option in _FORMS[name][1] for name in names):
            raise UsageError(f"form {names[0]!r} does not read --{option}")


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _add_common(parser: argparse.ArgumentParser, sides: tuple = ("",)) -> None:
    """Options shared by the subcommands that build forms, with one ``--form``
    and its C options per side: ``("",)``, or ``("-a", "-b")`` for ``compare``."""
    parser.add_argument("--bundle", choices=("hopf", "trivial"), required=True)
    parser.add_argument("--dim", type=int, default=None,
                        help="base dimension of a trivial-c form")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None,
                        help="integrator steps of a geodesic or lmw form")
    parser.add_argument("--box", type=float, default=None,
                        help="half-width of a trivial-c form's sampling box")
    parser.add_argument("-o", "--output", default=None)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    for side in sides:
        parser.add_argument(f"--form{side}", choices=tuple(_FORMS), required=True)
        parser.add_argument(f"--c-family{side}", choices=C_FAMILIES, default=None,
                            help=f"C family of a trivial-c form (default {C_FAMILIES[0]})")
        parser.add_argument(f"--c-params{side}", default=None,
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
    p_verify.add_argument("--samples", type=int, default=SampleConfig.n_samples)
    p_verify.add_argument("--tolerance", type=float, default=None,
                          help="override the tolerance of every measured axiom")

    p_compare = sub.add_parser("compare", help="compare two forms on shared samples")
    _add_common(p_compare, ("-a", "-b"))
    p_compare.add_argument("--samples", type=int, default=SampleConfig.n_samples)

    p_sweep = sub.add_parser("sweep", help="counterexample table over a theta grid")
    p_sweep.add_argument("--grid", default="-0.7:0.7:0.05",
                         help="start:stop:step, clipped to (-pi/4, pi/4)")
    p_sweep.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p_sweep.add_argument("-o", "--output", default=None)
    p_sweep.add_argument("--format", choices=("csv", "text"), default="csv")

    p_probe = sub.add_parser("slice-probe",
                             help="slice/orbit separation at random points")
    _add_common(p_probe)
    p_probe.add_argument("--points", type=int, default=10)
    p_probe.add_argument("--budget", type=int, default=32)
    p_probe.add_argument("--separation", type=float, default=DEFAULT_SEPARATION)
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
    """Reject a step count, box, dimension, probe count, budget or separation
    that would make a run vacuous, undefined or unbounded."""
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
    if getattr(args, "dim", 1) > _MAX_DIM:
        raise UsageError(f"--dim must be at most {_MAX_DIM}, got {args.dim}")
    if getattr(args, "points", 1) < 1:
        raise UsageError(f"--points must be at least 1, got {args.points}")
    if getattr(args, "budget", 1) < 1:
        raise UsageError(f"--budget must be at least 1, got {args.budget}")
    separation = getattr(args, "separation", 1.0)
    if not (math.isfinite(separation) and separation > 0):
        raise UsageError(f"--separation must be finite and above 0, got {separation}")


def _cmd_verify(args) -> int:
    form = _build_form(args)
    cfg = SampleConfig(seed=args.seed, n_samples=args.samples,
                       tolerance=args.tolerance, box=args.box)
    report = check_axioms(form, cfg)
    _emit(report.to_json() if args.format == "json" else report.to_text(),
          args.output)
    return 0 if report.verdict == "pass" else 1


def _cmd_compare(args) -> int:
    form_a = _build_form(args, "-a")
    form_b = _build_form(args, "-b")
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
    form = _build_form(args)
    bundle = form.bundle
    # one block of the stream's draws, a row per point: the serial sample_point loop's points
    draws = substream(args.seed, 0x9048).next_row(args.points * bundle.point_draws)
    points = bundle.values_of("point", bundle.sample_rows(
        ("point",), draws.reshape(args.points, -1), args.box)[0])
    reports = slice_probes(form, points, args.budget, separation=args.separation,
                           seed=args.seed, box=args.box)
    results = [{
        "point": bundle.describe_point(point),
        "min_separation": report.min_separation,
        "slice_samples": report.budget,
        "orbit_samples": report.budget,
        "passed": report.passed,
    } for point, report in zip(points, reports)]
    payload = {
        "artifact_version": __version__,
        "bundle": bundle.name,
        "form_provenance": form.provenance,
        "seed": args.seed,
        "budget": args.budget,
        "separation": args.separation,
        "points": results,
        "verdict": "pass" if all(report.passed for report in reports) else "fail",
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, allow_nan=False), args.output)
    else:
        lines = [f"bundle={bundle.name} form={form.provenance} seed={args.seed}"]
        lines += [f"  min_separation={r['min_separation']!r} passed={r['passed']}"
                  for r in results]
        lines.append(f"verdict: {payload['verdict']}")
        _emit("\n".join(lines), args.output)
    return 0 if payload["verdict"] == "pass" else 1


def _merge_grid_value(argv: list) -> list:
    # argparse mistakes a leading-dash grid like "-0.7:0.7:0.05" for an
    # option; splice it into --grid=... form
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--grid" else None
        out.append(token if value is None else f"--grid={value}")
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
        if hasattr(args, "bundle"):
            _resolve_options(args)
        _check_sizes(args)
        return {"verify": _cmd_verify, "compare": _cmd_compare, "sweep": _cmd_sweep,
                "slice-probe": _cmd_slice_probe}[args.command](args)
    except (UsageError, DisconnError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
