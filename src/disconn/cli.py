"""Command-line entry point.

Subcommands: ``verify`` (axiom certification), ``compare`` (two forms on
shared samples), ``sweep`` (counterexample table as CSV) and
``slice-probe`` (slice/orbit separation at random points), with the
options ``_COMMANDS`` lists. An option takes ``--name value`` or
``--name=value`` (``-o`` is ``--output``), and the token after it is its
value even when it starts with ``-``. A unique prefix stands for an
option, an exact name wins, and the last of a repeated option wins.
``--version``, and ``-h``/``--help`` before or after a command, exit 0.

Exit codes: 0 on success/pass, 1 when a verification fails (axiom
verdict ``fail`` or a probe below threshold), 2 on usage or
configuration errors, each one ``error:`` line: an unknown or ambiguous
option, a missing or malformed value, sizes that would make a run vacuous,
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

import json
import math
import os
import sys
from types import SimpleNamespace
from typing import Optional

from . import __version__
from .bundle import DEFAULT_BOX, TrivialBundle, box_fits
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


def _form_options(sides: tuple = ("",)) -> dict:
    """Options of the commands that build forms: ``--form`` and its C options per side."""
    options = {
        "--bundle": (("hopf", "trivial"), None, True, "bundle the forms live on"),
        "--dim": (int, None, False, "base dimension of a trivial-c form"),
        "--seed": (int, None, False, f"seed (default DISCONN_SEED, else {SampleConfig.seed})"),
        "--steps": (int, None, False, "integrator steps of a geodesic or lmw form"),
        "--box": (float, None, False, "half-width of a trivial-c form's sampling box"),
        "--output": (str, None, False, "write to this file instead of stdout"),
        "--format": (("json", "text"), "json", False, "report format"),
    }
    for side in sides:
        options[f"--form{side}"] = (tuple(_FORMS), None, True, "connection form")
        options[f"--c-family{side}"] = (C_FAMILIES, None, False,
                                        f"C family of a trivial-c form (default {C_FAMILIES[0]})")
        options[f"--c-params{side}"] = (str, None, False, "comma-separated C family parameters")
    return options


#: command -> (help, {option: (converter or tuple of choices, default, required, help)})
_COMMANDS = {
    "verify": ("certify connection-form axioms", {
        **_form_options(),
        "--samples": (int, SampleConfig.n_samples, False, "samples per axiom"),
        "--tolerance": (float, None, False, "override the tolerance of every measured axiom"),
    }),
    "compare": ("compare two forms on shared samples", {
        **_form_options(("-a", "-b")),
        "--samples": (int, SampleConfig.n_samples, False, "shared samples"),
    }),
    "sweep": ("counterexample table over a theta grid", {
        "--grid": (str, "-0.7:0.7:0.05", False, "start:stop:step, clipped to (-pi/4, pi/4)"),
        "--steps": (int, DEFAULT_STEPS, False, "integrator steps"),
        "--output": (str, None, False, "write to this file instead of stdout"),
        "--format": (("csv", "text"), "csv", False, "table format"),
    }),
    "slice-probe": ("slice/orbit separation at random points", {
        **_form_options(),
        "--points": (int, 10, False, "points to probe"),
        "--budget": (int, 32, False, "slice and orbit samples per point"),
        "--separation": (float, DEFAULT_SEPARATION, False, "least separation that passes"),
    }),
}
#: the long option each short form stands for
_SHORT = {"-h": "--help", "-o": "--output"}


def _help(command: Optional[str] = None) -> str:
    """The usage of ``disconn``, or of one of its commands, from ``_COMMANDS``."""
    if command is None:
        usage = "{" + ",".join(_COMMANDS) + "} [options]"
        rows = [(name, text) for name, (text, _) in _COMMANDS.items()]
        rows += [("--version", "print the version and exit")]
    else:
        usage, rows = f"{command} [options]\n\n{_COMMANDS[command][0]}", []
        for name, (kind, default, required, text) in _COMMANDS[command][1].items():
            kinds = "|".join(kind) if isinstance(kind, tuple) else kind.__name__
            note = "; required" if required else "" if default is None else f"; default {default}"
            names = [short for short, long in _SHORT.items() if long == name] + [name]
            rows.append((", ".join(names), f"{text} [{kinds}{note}]"))
    rows.append(("-h, --help", "show this help and exit"))
    return "\n".join([f"usage: disconn {usage}", ""]
                     + [f"  {left:<16}{right}" for left, right in rows]) + "\n"


def _parse_args(argv: list) -> Optional[SimpleNamespace]:
    """The command of ``argv`` and every option of it as attributes, or None
    once ``--help`` or ``--version`` has printed its text."""
    command = argv[0] if argv and not argv[0].startswith("-") else None
    if command is not None and command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}: choose from {', '.join(_COMMANDS)}")
    options, given = _COMMANDS[command][1] if command else {}, {}
    names = (*options, "--help") if command else ("--help", "--version")
    tokens = iter(argv[1:] if command else argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        name = _SHORT.get(name, name)
        matches = [name] if name in names else [
            known for known in names if name.startswith("--") and known.startswith(name)]
        if len(matches) != 1:
            raise UsageError(f"ambiguous option {name}: could match {', '.join(matches)}"
                             if matches else f"unexpected argument {token!r}")
        name = matches[0]
        if name in ("--help", "--version"):
            if eq:
                raise UsageError(f"{name} takes no value")
            sys.stdout.write(_help(command) if name == "--help" else f"{__version__}\n")
            return None
        value = value if eq else next(tokens, None)
        if value is None:
            raise UsageError(f"{name} expects a value")
        kind = options[name][0]
        try:  # a choice not in its tuple raises from index
            given[name] = kind[kind.index(value)] if isinstance(kind, tuple) else kind(value)
        except ValueError:
            kinds = "one of " + ", ".join(kind) if isinstance(kind, tuple) else kind.__name__
            raise UsageError(f"{name} must be {kinds}, got {value!r}") from None
    if command is None:
        raise UsageError(f"a command is required: one of {', '.join(_COMMANDS)}")
    missing = [name for name, spec in options.items() if spec[2] and name not in given]
    if missing:
        raise UsageError(f"{command} requires {', '.join(missing)}")
    return SimpleNamespace(command=command, **{
        name[2:].replace("-", "_"): given.get(name, spec[1]) for name, spec in options.items()})


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
    if not box_fits(box, getattr(args, "dim", 1)):
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


def run_cli(argv: Optional[list] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            return 0
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
