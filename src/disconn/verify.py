"""Randomized axiom certification, form comparison, and the counterexample sweep.

The harness certifies, by seeded sampling, that a connection form
satisfies its defining axioms: identity on the diagonal, equivariance
under the product group action, domain properties, and the section,
equivariance and normalization laws of the induced horizontal lift
together with both form/lift round trips.  Failures are data, not
errors; every axiom record carries its worst offending input, and that
input re-evaluated standalone reproduces the recorded violation.

Each axiom is one entry of a table: the inputs it draws and a generator
that states its queries to four targets (the form, the lift induced
from it, the form recovered from that lift, and the lift induced from
the recovered form), receives the answers and returns one violation per
input.  Every target states its items as pairs for the form and a map
of the form's values, so a round evaluates the form once whatever the
number of axioms; on an integrator-built form that is one Runge-Kutta
integration per chunk of at most 4,096 pairs.  Every form is checked in
such rounds, each covering every axiom for a block of at most 1,024
samples, every sample a column of component rows (see
:mod:`disconn.bundle`) from its draw to its violation.  Each axiom keeps
only its failure count and its running worst input, folded as ``max()``
folds, with the violation its round computed; only that input is built
as values, for the report.  Standalone re-evaluation
(:func:`violation_from_record`) is the same runner on a round of one.

Sampling uses SplitMix64 streams addressed by (seed, axiom, sample
index), so reports are byte-identical across runs and independent of
the execution order of samples.  Points are drawn uniformly: on the
total sphere via normalized 4-component Gaussians, on flat bases in a
configurable box, with uniform angles for group elements.  An axiom's
entry, like :func:`compare_forms`'s table, lists its inputs in draw order,
each a kind (total point, base point or group element) with the domain
check that runs once that input is drawn.  The row loop
``connection._draw_rows`` draws each sample from one row of
counter-addressed draws and redraws a rejected row, up to 100 attempts,
counting each rejection in the report.  These are a run's only domain
checks: rounds never check again, and a restored worst input passes the
same checks for its round of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .algebra import (CIRCLE_IDENTITY, CircleElement, UnitQuaternion, canonical_angle,
                      canonical_rows, hamilton, unit_rows)
from .bundle import DEFAULT_BOX, HopfBundle
from .connection import (
    DiscreteConnectionForm,
    _draw_rows,
    _finite_above_zero,
    _narrow,
    _pair_in,
    answer_queries,
    form_from_lift,
    lift_from_form,
)
from .errors import EmptyDomainIntersection, InvalidConfig, OutOfDomain, OutOfRange, ProbeFailed
from .riemannian import DEFAULT_STEPS, beta_formula, lmw_form
from .rng import substream_states

#: axioms that record 0 (held) or 1 (violated) and compare exactly, whatever the tolerance
_DOMAIN_AXIOMS = frozenset({"diagonal_domain", "domain_invariance", "domain_properness"})

#: samples per round: every axiom's inputs for this many samples at once
_ROUND_SAMPLES = 1024
_COMPARE_STREAM = 0x10001


@dataclass(frozen=True)
class SampleConfig:
    """Sampling parameters; identical configs yield byte-identical reports.

    ``tolerance``, when given, replaces the default of every measured
    axiom, 1e-6 on a form flagged as a non-connection (the variant) and
    1e-9 on any other; the three domain axioms compare exactly whatever it
    is.  Raises InvalidConfig for fewer than one sample, for a box that is
    not a finite positive half-width and for a non-finite tolerance, each
    of which would make a verdict vacuous or wrong.  A negative tolerance
    stays allowed: it can only force failures of the measured axioms.
    """

    seed: int = 42
    n_samples: int = 1000
    tolerance: Optional[float] = None
    box: float = DEFAULT_BOX

    def __post_init__(self):
        if self.n_samples < 1:
            raise InvalidConfig(f"n_samples must be at least 1, got {self.n_samples}")
        _finite_above_zero("box", self.box)
        if self.tolerance is not None and not math.isfinite(self.tolerance):
            raise InvalidConfig(f"tolerance must be finite, got {self.tolerance}")

    def tolerance_for(self, axiom_id: str, form: DiscreteConnectionForm) -> float:
        if axiom_id in _DOMAIN_AXIOMS:
            return 0.0
        if self.tolerance is not None:
            return self.tolerance
        return 1e-6 if form.flagged_non_connection else 1e-9


@dataclass
class AxiomRecord:
    axiom_id: str
    samples_run: int
    failures: int
    max_violation: float
    worst_input: Optional[dict]


@dataclass
class VerificationReport:
    """Per-axiom pass/fail statistics with worst violations."""

    artifact_version: str
    bundle: str
    form_provenance: str
    seed: int
    n_samples: int
    resampled_out_of_domain: int
    axioms: list[AxiomRecord] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "pass" if all(a.failures == 0 for a in self.axioms) else "fail"

    def axiom(self, axiom_id: str) -> AxiomRecord:
        for record in self.axioms:
            if record.axiom_id == axiom_id:
                return record
        raise KeyError(axiom_id)

    def to_json_dict(self) -> dict:
        return {
            "artifact_version": self.artifact_version,
            "bundle": self.bundle,
            "form_provenance": self.form_provenance,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "resampled_out_of_domain": self.resampled_out_of_domain,
            "axioms": [
                {
                    "id": a.axiom_id,
                    "failures": a.failures,
                    "max_violation": a.max_violation,
                    "worst_input": a.worst_input,
                }
                for a in self.axioms
            ],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False)

    def to_text(self) -> str:
        lines = [
            f"bundle={self.bundle} form={self.form_provenance} "
            f"seed={self.seed} samples={self.n_samples} "
            f"resampled={self.resampled_out_of_domain}",
        ]
        for a in self.axioms:
            lines.append(
                f"  {a.axiom_id:<20} samples={a.samples_run:<7} "
                f"failures={a.failures:<6} max_violation={a.max_violation!r}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# axioms, one spec each
# ---------------------------------------------------------------------------
#
# An axiom's violations are a generator over (form, inputs), the rows of
# each input.  It yields its queries as a list of (target, item rows),
# receives the answer rows of each query, and returns the row of
# violations; the targets are the keys of _targets(form).

def _angle_gap(a, b):
    """circle_distance on angle rows."""
    return np.abs(canonical_rows(a - b))


def _normalization(form, inputs):
    (q,) = inputs
    (values,) = yield [("form", (q, q))]
    return _angle_gap(values, CIRCLE_IDENTITY.angle)


def _equivariance(form, inputs):
    bundle = form.bundle
    q0, q1, g0, g1 = inputs
    base, moved = yield [
        ("form", (q0, q1)), ("form", (bundle.act_rows(g0, q0), bundle.act_rows(g1, q1)))]
    # g1 * base * g0.inverse()
    return _angle_gap(moved, canonical_rows(canonical_rows(g1 + base) + canonical_rows(-g0)))


def _diagonal_domain(form, inputs):
    yield []
    return np.where(form.domain_rows(inputs[0], inputs[0]), 0.0, 1.0)


def _domain_invariance(form, inputs):
    yield []
    return np.where(_moved_pair_in_form({"form": form}, inputs), 0.0, 1.0)


def _lift_section(form, inputs):
    (points,) = yield [("lift", inputs)]
    return form.bundle.base_distance_rows(form.bundle.project_rows(points), inputs[1])


def _lift_equivariance(form, inputs):
    bundle = form.bundle
    q0, r1, g = inputs
    moved, plain = yield [("lift", (bundle.act_rows(g, q0), r1)), ("lift", (q0, r1))]
    return bundle.distance_rows(moved, bundle.act_rows(g, plain))


def _lift_normalization(form, inputs):
    (q0,) = inputs
    (points,) = yield [("lift", (q0, form.bundle.project_rows(q0)))]
    return form.bundle.distance_rows(points, q0)


def _roundtrip_form(form, inputs):
    direct, recon = yield [("form", inputs), ("recovered", inputs)]
    return _angle_gap(direct, recon)


def _roundtrip_lift(form, inputs):
    direct, recon = yield [("lift", inputs), ("lift2", inputs)]
    return form.bundle.distance_rows(direct, recon)


def _antipodal_partner(bundle, q0, g):
    """Group translate of j*q0, which lies over the base antipode of q0, on rows."""
    return bundle.act_rows(g, unit_rows(*hamilton(0.0, 0.0, 1.0, 0.0, *q0)))


def _domain_properness(form, inputs):
    q0, g = inputs
    yield []
    return np.where(form.domain_rows(q0, _antipodal_partner(form.bundle, q0, g)), 1.0, 0.0)


class _Axiom(NamedTuple):
    #: (kind, check) per input in draw order; kind is "point", "base" or
    #: "group", and check(targets, drawn rows) runs once that input is drawn
    #: and returns the mask of the rows that pass
    steps: tuple
    violations: Callable


def _moved_pair_in_form(targets, drawn):
    q0, q1, g0, g1 = drawn
    form = targets["form"]
    return form.domain_rows(form.bundle.act_rows(g0, q0), form.bundle.act_rows(g1, q1))


def _plain_and_moved_pair_in_lift(targets, drawn):
    lift = targets["lift"]
    return _narrow(lift.domain_rows(*drawn[:2]), lambda q0, r1, g: lift.domain_rows(
        lift.bundle.act_rows(g, q0), r1), *drawn)


def _own_fiber_in_lift(targets, drawn):
    lift = targets["lift"]
    return lift.domain_rows(drawn[0], lift.bundle.project_rows(drawn[0]))


_POINT, _BASE, _GROUP = ("point", None), ("base", None), ("group", None)

#: the axioms in report order
_AXIOMS = {
    "normalization": _Axiom((("point", _pair_in("form")),), _normalization),
    "equivariance": _Axiom(
        (_POINT, ("point", _pair_in("form")), _GROUP, ("group", _moved_pair_in_form)),
        _equivariance),
    "diagonal_domain": _Axiom((_POINT,), _diagonal_domain),
    "domain_invariance": _Axiom(
        (_POINT, ("point", _pair_in("form")), _GROUP, _GROUP), _domain_invariance),
    "lift_section": _Axiom((_POINT, ("base", _pair_in("lift"))), _lift_section),
    "lift_equivariance": _Axiom(
        (_POINT, _BASE, ("group", _plain_and_moved_pair_in_lift)), _lift_equivariance),
    "lift_normalization": _Axiom((("point", _own_fiber_in_lift),), _lift_normalization),
    "roundtrip_form": _Axiom(
        (_POINT, ("point", _pair_in("form", "recovered"))), _roundtrip_form),
    "roundtrip_lift": _Axiom(
        (_POINT, ("base", _pair_in("lift", "lift2"))), _roundtrip_lift),
    # drawn over antipodal base points, so outside the domain by design
    "domain_properness": _Axiom((_POINT, _GROUP), _domain_properness),
}
#: axiom identifiers in report order
AXIOM_IDS = tuple(_AXIOMS)


def _targets(form: DiscreteConnectionForm) -> dict:
    """The form with its induced lift, the recovered form and that form's lift."""
    lift = lift_from_form(form)
    recovered = form_from_lift(lift)
    return {"form": form, "lift": lift, "recovered": recovered,
            "lift2": lift_from_form(recovered)}


def _run_round(targets: dict, jobs: list) -> list[np.ndarray]:
    """Violation rows of each (axiom, input rows) job from one evaluation of the form."""
    form = targets["form"]
    axioms = [_AXIOMS[axiom].violations(form, inputs) for axiom, inputs in jobs]
    requests = [next(axiom) for axiom in axioms]
    answers = iter(answer_queries(
        [(targets[name], items) for request in requests for name, items in request]))
    violations = []
    for axiom, request in zip(axioms, requests):
        try:
            axiom.send([next(answers) for _ in request])
        except StopIteration as done:
            violations.append(done.value)
    return violations


# ---------------------------------------------------------------------------
# worst-input serialization
# ---------------------------------------------------------------------------

#: per input kind: its key in a serialized input, then the maps to and from that entry
_KINDS = {
    "point": ("point", lambda b, q: b.describe_point(q), lambda b, d: b.restore_point(d)),
    "base": ("base", lambda b, r: b.describe_base(r), lambda b, d: b.restore_base(d)),
    "group": ("group_angle", lambda b, g: g.angle, lambda b, angle: CircleElement(angle)),
}


def _serialize_inputs(bundle, steps: tuple, inputs: Sequence[np.ndarray]) -> dict:
    """The serialized input whose rows, one column each, are ``inputs``."""
    out = {}
    for i, ((kind, _), rows) in enumerate(zip(steps, inputs)):
        key, describe, _ = _KINDS[kind]
        out[f"arg{i}"] = {key: describe(bundle, bundle.values_of(kind, rows)[0])}
    return out


def _worst_index(worst: Optional[float], violations: np.ndarray) -> Optional[int]:
    """The sample of a block that replaces the running ``worst`` (None before the
    first block) as max() folds: the first maximum wins, and a NaN only as the
    very first sample, since every comparison with NaN is false."""
    k = int(np.argmax(np.where(np.isnan(violations), -np.inf, violations)))
    if worst is None:
        return k if violations[k] > violations[0] else 0
    return k if violations[k] > worst else None


def violation_from_record(form: DiscreteConnectionForm, axiom_id: str,
                          worst_input: dict) -> float:
    """Re-evaluate a recorded worst input standalone, as a round of one.

    Raises OutOfDomain unless the input passes its axiom's draw checks.
    The returned violation reproduces the report's ``max_violation`` for
    that axiom, which is what makes failure reports auditable.
    """
    targets = _targets(form)
    inputs = []
    for i, (kind, check) in enumerate(_AXIOMS[axiom_id].steps):
        key, _, restore = _KINDS[kind]
        inputs.append(form.bundle.rows_of(kind, [restore(form.bundle,
                                                         worst_input[f"arg{i}"][key])]))
        if check is not None and not check(targets, inputs)[0]:
            raise OutOfDomain(f"recorded {axiom_id} input outside the domain it is drawn from")
    ((violation,),) = _run_round(targets, [(axiom_id, inputs)])
    return float(violation)


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

def check_axioms(form: DiscreteConnectionForm, cfg: SampleConfig) -> VerificationReport:
    """Certify the connection-form axioms on seeded random samples.

    Runs every axiom at ``cfg.n_samples`` samples with per-sample streams
    derived from (seed, axiom index, sample index), each drawn by the
    draw loop from the axiom's steps, or ProbeFailed naming the axiom.  The
    domain-properness probe runs only on the quaternion bundle, where pairs
    over antipodal base points exist by construction; each of its samples
    is a counted out-of-domain rejection.

    Every form is checked in rounds that cover every axiom for a block of
    at most ``_ROUND_SAMPLES`` samples, one evaluation of the form each
    (on an integrator-built form, one integration per 4,096 pairs).
    Each axiom keeps only its failure count and its running worst input,
    and reports the violation its round computed for that input.
    """
    bundle = form.bundle
    targets = _targets(form)
    rejected = [0]
    properness = isinstance(bundle, HopfBundle)
    checked = [(index, axiom, _AXIOMS[axiom].steps,
                ProbeFailed(f"resampling budget exhausted ({axiom})"))
               for index, axiom in enumerate(AXIOM_IDS)
               if axiom != "domain_properness" or properness]
    failures = dict.fromkeys(AXIOM_IDS, 0)
    worst = {}  # axiom -> (violation, input rows of one column), folded as max() would
    for start in range(0, cfg.n_samples, _ROUND_SAMPLES):
        samples = range(start, min(start + _ROUND_SAMPLES, cfg.n_samples))
        jobs = [(axiom, _draw_rows(steps, targets, substream_states(cfg.seed, index, samples),
                                   cfg.box, rejected, lambda _, error=exhausted: error))
                for index, axiom, steps, exhausted in checked]
        for (axiom, inputs), violations in zip(jobs, _run_round(targets, jobs)):
            tol = cfg.tolerance_for(axiom, form)
            # a NaN violation or tolerance counts as a failure, never a pass
            failures[axiom] += int(np.count_nonzero(~(violations <= tol)))
            k = _worst_index(worst[axiom][0] if axiom in worst else None, violations)
            if k is not None:
                worst[axiom] = (float(violations[k]), [rows[..., k:k + 1].copy()
                                                       for rows in inputs])
        # free this round's inputs before the next round draws its own
        del jobs, inputs, violations

    records = [
        AxiomRecord(axiom, cfg.n_samples, failures[axiom], worst[axiom][0],
                    _serialize_inputs(bundle, _AXIOMS[axiom].steps, worst[axiom][1]))
        if axiom in worst else AxiomRecord(axiom, 0, 0, 0.0, None)
        for axiom in AXIOM_IDS
    ]
    return VerificationReport(
        artifact_version=__version__,
        bundle=bundle.name,
        form_provenance=form.provenance,
        seed=cfg.seed,
        n_samples=cfg.n_samples,
        # each domain_properness sample is drawn outside the domain
        resampled_out_of_domain=rejected[0] + properness * cfg.n_samples,
        axioms=records,
    )


# ---------------------------------------------------------------------------
# form comparison
# ---------------------------------------------------------------------------

@dataclass
class FormComparison:
    """Maximum group-angle deviation between two forms on shared samples."""

    bundle: str
    provenance_a: str
    provenance_b: str
    seed: int
    n_samples: int
    max_deviation: float
    worst_input: Optional[dict]

    def to_json_dict(self) -> dict:
        return {
            "artifact_version": __version__,
            "bundle": self.bundle,
            "form_a": self.provenance_a,
            "form_b": self.provenance_b,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "max_deviation": self.max_deviation,
            "worst_input": self.worst_input,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False)

    def to_text(self) -> str:
        return (f"bundle={self.bundle} {self.provenance_a} vs {self.provenance_b} "
                f"seed={self.seed} samples={self.n_samples}\n"
                f"max deviation: {self.max_deviation!r}")


#: a pair (q0, q1) in the domains of both compared forms
_COMPARE_STEPS = (_POINT, ("point", _pair_in("form", "other")))


def compare_forms(form_a: DiscreteConnectionForm, form_b: DiscreteConnectionForm,
                  cfg: SampleConfig) -> FormComparison:
    """Compare two forms on every sample, each a pair the draw loop checks in
    both domains, or raise EmptyDomainIntersection naming a sample it cannot draw."""
    if form_a.bundle != form_b.bundle:
        raise ValueError("forms must live on the same bundle")
    bundle = form_a.bundle
    targets = {"form": form_a, "other": form_b}
    rejected = [0]
    pairs = _draw_rows(
        _COMPARE_STEPS, targets, substream_states(cfg.seed, _COMPARE_STREAM, range(cfg.n_samples)),
        cfg.box, rejected, lambda i: EmptyDomainIntersection(
            f"no draw for sample {i} landed in the domains of both forms"))
    # the draw checked both domains
    va, vb = (answer_queries([(form, pairs)])[0] for form in (form_a, form_b))
    deviations = _angle_gap(va, vb)
    worst = _worst_index(None, deviations)
    return FormComparison(
        bundle=bundle.name,
        provenance_a=form_a.provenance,
        provenance_b=form_b.provenance,
        seed=cfg.seed,
        n_samples=deviations.size,
        max_deviation=float(deviations[worst]),
        worst_input=_serialize_inputs(bundle, _COMPARE_STEPS,
                                      [rows[..., worst:worst + 1] for rows in pairs]),
    )


# ---------------------------------------------------------------------------
# counterexample sweep
# ---------------------------------------------------------------------------

#: horizontal partner of the identity used by the counterexample family
WITNESS_POINT = UnitQuaternion(1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0), 0.0)

_SWEEP_FD_STEP = 1e-2
_SWEEP_DERIVATIVE_ATOL = 1e-3

CSV_HEADER = "theta,beta_formula,lmw_angle,equivariant_angle,abs_difference"


@dataclass(frozen=True)
class SweepRow:
    theta: float
    beta_formula: float
    lmw_angle: float
    equivariant_angle: float
    abs_difference: float


@dataclass
class SweepResult:
    rows: list[SweepRow]
    derivative_at_zero: float
    steps: int

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.theta!r},{r.beta_formula!r},{r.lmw_angle!r},"
                         f"{r.equivariant_angle!r},{r.abs_difference!r}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        widths = ("theta", "beta_formula", "lmw_angle", "difference")
        lines = [f"{widths[0]:>12} {widths[1]:>16} {widths[2]:>16} {widths[3]:>12}"]
        for r in self.rows:
            lines.append(f"{r.theta:>12.6f} {r.beta_formula:>16.10f} "
                         f"{r.lmw_angle:>16.10f} {r.abs_difference:>12.3e}")
        lines.append(f"derivative of the variant angle at 0: "
                     f"{self.derivative_at_zero!r} (equivariant prediction: 1.0)")
        return "\n".join(lines)


def counterexample_sweep(theta_grid: Sequence[float],
                         steps: int = DEFAULT_STEPS) -> SweepResult:
    """Tabulate the variant construction against its closed-form phase.

    For each theta the table reports the formula value, the numerically
    integrated variant angle at the witness pair, the equivariant
    prediction (theta itself) and their absolute difference.  The sweep
    also differentiates the variant angle at zero by central differences
    and checks the slope is pi/4 within 1e-3; a mismatch raises
    ProbeFailed since it would mean the integrator disagrees with the
    formula it reproduces.
    """
    thetas = [float(t) for t in theta_grid]
    for t in thetas:
        if not (-math.pi / 4.0 < t < math.pi / 4.0):
            raise OutOfRange(f"theta {t} outside the open interval (-pi/4, pi/4)")
    form = lmw_form(steps)
    anchor = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
    bundle = form.bundle

    def witness_pair(theta: float):
        return anchor, bundle.act(CircleElement(theta), WITNESS_POINT)

    h = _SWEEP_FD_STEP
    *angles, plus, minus = form.evaluate_many(
        [witness_pair(t) for t in thetas] + [witness_pair(h), witness_pair(-h)])
    rows = []
    for t, a in zip(thetas, angles):
        rows.append(SweepRow(
            theta=t,
            beta_formula=beta_formula(t),
            lmw_angle=a.angle,
            equivariant_angle=t,
            abs_difference=abs(canonical_angle(a.angle - t)),
        ))

    derivative = canonical_angle(plus.angle - minus.angle) / (2.0 * h)
    if abs(derivative - math.pi / 4.0) > _SWEEP_DERIVATIVE_ATOL:
        raise ProbeFailed(
            f"variant-angle derivative {derivative} differs from pi/4 by more "
            f"than {_SWEEP_DERIVATIVE_ATOL}")
    return SweepResult(rows, derivative, steps)
