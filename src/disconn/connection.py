"""Discrete connection forms, horizontal lifts, and derived structure.

A discrete connection form assigns a group element to pairs of nearby
total points, vanishing on the diagonal and transforming equivariantly
under the product group action.  This module implements:

* the form / lift objects with explicit domain predicates,
* the unique vertical-times-horizontal decomposition of a pair,
* constructions of forms and lifts on trivial bundles from a base-pair
  function C,
* the two mutually inverse conversions between forms and lifts,
* pointwise numerical probes of horizontal slices (separation from the
  group orbit and transversality of tangents), and
* the reduced-space identification sending a pair to base points plus an
  adjoint-bundle class.

Forms and lifts are immutable after construction and their evaluations
are pure, so concurrent evaluation is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import CIRCLE_IDENTITY, CircleElement
from .bundle import PrincipalBundle, TrivialBundle, TrivialPoint
from .errors import InvalidC, OutOfDomain, ProbeFailed, SectionUndefined
from .rng import SplitMix64, substream

#: a pair is horizontal when its group value has angle magnitude below this
HORIZONTAL_ANGLE_ATOL = 1e-8
#: residual below which the slice root solve is accepted
_ROOT_ATOL = 1e-9
_ROOT_MAX_ITER = 80


class DiscreteConnectionForm:
    """Group-valued map on pairs of total points with an explicit domain.

    ``provenance`` records how the form was built: one of ``closed-form``,
    ``C-built``, ``geodesic-built`` or ``lmw-variant``.  Objects tagged
    ``lmw-variant`` additionally carry ``flagged_non_connection=True``:
    they are form-shaped but intentionally violate equivariance.  A batched
    evaluator (``evaluate_many_fn``) must give each pair the exact bits of a
    batch of one, since reports keep the violations their batch computed.
    """

    def __init__(self, bundle: PrincipalBundle,
                 evaluate_fn: Callable,
                 in_domain_fn: Callable,
                 provenance: str,
                 *,
                 evaluate_many_fn: Optional[Callable] = None,
                 flagged_non_connection: bool = False,
                 out_of_domain_error: type = OutOfDomain):
        self.bundle = bundle
        self.provenance = provenance
        self.flagged_non_connection = flagged_non_connection
        self._evaluate_fn = evaluate_fn
        self._in_domain_fn = in_domain_fn
        self._evaluate_many_fn = evaluate_many_fn
        self._out_of_domain_error = out_of_domain_error

    @property
    def batched(self) -> bool:
        """True when the form has its own batched evaluator."""
        return self._evaluate_many_fn is not None

    def in_domain(self, q0, q1) -> bool:
        return self._in_domain_fn(q0, q1)

    def evaluate(self, q0, q1) -> CircleElement:
        if not self._in_domain_fn(q0, q1):
            raise self._out_of_domain_error(
                f"pair outside the domain of this {self.provenance} form")
        return self._evaluate_fn(q0, q1)

    def evaluate_many(self, pairs: Sequence[tuple]) -> list[CircleElement]:
        """Evaluate in-domain pairs, each exactly as a batch of one would."""
        for q0, q1 in pairs:
            if not self._in_domain_fn(q0, q1):
                raise self._out_of_domain_error(
                    f"pair outside the domain of this {self.provenance} form")
        if self._evaluate_many_fn is not None:
            return self._evaluate_many_fn(pairs)
        return [self._evaluate_fn(q0, q1) for q0, q1 in pairs]


class DiscreteHorizontalLift:
    """Map (q0, r1) to the unique horizontal partner of q0 over r1.

    A batched lift (``lift_many_fn``) must lift each item as a batch of one.
    """

    def __init__(self, bundle: PrincipalBundle,
                 lift_fn: Callable,
                 in_domain_fn: Callable,
                 provenance: str,
                 *,
                 lift_many_fn: Optional[Callable] = None):
        self.bundle = bundle
        self.provenance = provenance
        self._lift_fn = lift_fn
        self._in_domain_fn = in_domain_fn
        self._lift_many_fn = lift_many_fn

    def in_domain(self, q0, r1) -> bool:
        return self._in_domain_fn(q0, r1)

    def lift(self, q0, r1):
        """Horizontal partner of q0 over r1.

        Raises OutOfDomain for pairs outside the lift's domain and lets
        SectionUndefined propagate when r1 falls outside the section chart
        backing a form-derived lift.
        """
        return self._lift_fn(q0, r1)

    def lift_many(self, items: Sequence[tuple]) -> list:
        if self._lift_many_fn is not None:
            return self._lift_many_fn(items)
        return [self._lift_fn(q0, r1) for q0, r1 in items]


@dataclass(frozen=True)
class Decomposition:
    """Vertical factor g and horizontal partner h1 of a pair (q0, q1)."""

    g: CircleElement
    h1: object


@dataclass(frozen=True)
class ReducedPair:
    """Image of a pair under the reduced-space identification.

    ``rep_point`` and ``rep_group`` are the canonical representative of
    the adjoint-bundle class: the section value over the first base point
    and the correspondingly conjugated group element.
    """

    base0: object
    base1: object
    rep_point: object
    rep_group: CircleElement


def decompose_pair(form: DiscreteConnectionForm, q0, q1) -> Decomposition:
    """Split (q0, q1) into a vertical translation and a horizontal pair.

    The group factor is the form's value; applying its inverse to q1
    yields the horizontal partner, so act(g, h1) reconstructs q1.
    """
    g = form.evaluate(q0, q1)
    h1 = form.bundle.act(form.bundle.group_inverse(g), q1)
    return Decomposition(g, h1)


def is_horizontal(form: DiscreteConnectionForm, q0, q1,
                  *, atol: float = HORIZONTAL_ANGLE_ATOL) -> bool:
    """True when the form's value at (q0, q1) is the identity within ``atol``."""
    g = form.evaluate(q0, q1)
    return form.bundle.group_distance(g, form.bundle.group_identity()) <= atol


# ---------------------------------------------------------------------------
# trivial-bundle constructions from a base-pair function C
# ---------------------------------------------------------------------------

#: names of the built-in C families
C_FAMILIES = ("constant", "linear")

#: tolerance of the diagonal normalization check C(r, r) = e
_C_DIAGONAL_ATOL = 1e-9
_C_VALIDATION_SEED = 20240915
_C_VALIDATION_SAMPLES = 32


def make_c_function(family: str, params: Sequence[float] = (), dim: int = 1) -> Callable:
    """Base-pair function from the fixed registry of parametric families.

    ``constant`` ignores its parameters and always returns the identity.
    ``linear`` returns exp(i * sum_k w_k (r1_k - r0_k)) with weights taken
    from ``params`` (default: all ones).
    """
    if family == "constant":
        return lambda r0, r1: CIRCLE_IDENTITY
    if family == "linear":
        weights = tuple(float(p) for p in params) if params else (1.0,) * dim
        if len(weights) != dim:
            raise InvalidC(f"linear family needs {dim} weights, got {len(weights)}")

        def linear(r0, r1):
            return CircleElement(sum(w * (b - a) for w, a, b in zip(weights, r0, r1)))

        return linear
    raise InvalidC(f"unknown C family {family!r} (available: {', '.join(C_FAMILIES)})")


def _validate_c(bundle: TrivialBundle, c_fn: Callable) -> None:
    rng = SplitMix64(_C_VALIDATION_SEED)
    probes = [tuple(0.0 for _ in range(bundle.dim))]
    for _ in range(_C_VALIDATION_SAMPLES):
        probes.append(tuple(rng.uniform_in(-2.0, 2.0) for _ in range(bundle.dim)))
    for r in probes:
        g = c_fn(r, r)
        if abs(g.angle) > _C_DIAGONAL_ATOL:
            raise InvalidC(f"C({r}, {r}) has angle {g.angle:.3e}, expected identity")


def trivial_form_from_C(bundle: TrivialBundle, c_fn: Callable,
                        *, base_domain: Optional[Callable] = None) -> DiscreteConnectionForm:
    """Connection form g1 * C(r0, r1) * g0^{-1} on a trivial bundle.

    ``base_domain`` optionally restricts the base-pair domain; the total
    domain is its preimage under the double projection.
    """
    _validate_c(bundle, c_fn)

    def ev(q0: TrivialPoint, q1: TrivialPoint) -> CircleElement:
        return q1.g * c_fn(q0.r, q1.r) * q0.g.inverse()

    def dom(q0: TrivialPoint, q1: TrivialPoint) -> bool:
        return base_domain is None or base_domain(q0.r, q1.r)

    return DiscreteConnectionForm(bundle, ev, dom, "C-built")


def trivial_lift_from_C(bundle: TrivialBundle, c_fn: Callable,
                        *, base_domain: Optional[Callable] = None) -> DiscreteHorizontalLift:
    """Horizontal lift (q0, r1) -> (r1, g0 * C(r0, r1)^{-1}) on a trivial bundle."""
    _validate_c(bundle, c_fn)

    def dom(q0: TrivialPoint, r1) -> bool:
        return base_domain is None or base_domain(q0.r, tuple(r1))

    def lift(q0: TrivialPoint, r1) -> TrivialPoint:
        if not dom(q0, r1):
            raise OutOfDomain("base pair outside the C function's domain")
        return TrivialPoint(tuple(r1), q0.g * c_fn(q0.r, tuple(r1)).inverse())

    return DiscreteHorizontalLift(bundle, lift, dom, "C-built")


# ---------------------------------------------------------------------------
# conversions between forms and lifts
# ---------------------------------------------------------------------------

def lift_from_form(form: DiscreteConnectionForm,
                   section: Optional[Callable] = None) -> DiscreteHorizontalLift:
    """Horizontal lift induced by a form through a local section.

    The lift sends (q0, r1) to act(A(q0, s(r1))^{-1}, s(r1)) for a section
    s over the base.  The result does not depend on the section choice
    (exercised by the test suite with a second chart, not assumed).
    """
    bundle = form.bundle
    sec = section if section is not None else bundle.local_section

    def dom(q0, r1) -> bool:
        try:
            s = sec(r1)
        except SectionUndefined:
            return False
        return form.in_domain(q0, s)

    def lift_many(items):
        sections = [sec(r1) for _, r1 in items]  # SectionUndefined propagates
        gs = form.evaluate_many([(q0, s) for (q0, _), s in zip(items, sections)])
        return [bundle.act(bundle.group_inverse(g), s)
                for g, s in zip(gs, sections)]

    def lift(q0, r1):
        return lift_many([(q0, r1)])[0]

    return DiscreteHorizontalLift(bundle, lift, dom, form.provenance,
                                  lift_many_fn=lift_many)


def form_from_lift(lift: DiscreteHorizontalLift) -> DiscreteConnectionForm:
    """Connection form recovered from a lift by fiber translation.

    evaluate(q0, q1) translates the lifted point over project(q1) onto q1;
    composing with :func:`lift_from_form` is the identity in both orders
    on sampled domains.
    """
    bundle = lift.bundle

    def dom(q0, q1) -> bool:
        return lift.in_domain(q0, bundle.project(q1))

    def ev_many(pairs):
        pts = lift.lift_many([(q0, bundle.project(q1)) for q0, q1 in pairs])
        return [bundle.fiber_translation(p, q1)
                for p, (_, q1) in zip(pts, pairs)]

    def ev(q0, q1) -> CircleElement:
        return ev_many([(q0, q1)])[0]

    return DiscreteConnectionForm(bundle, ev, dom, lift.provenance,
                                  evaluate_many_fn=ev_many)


# ---------------------------------------------------------------------------
# reduced-space identification
# ---------------------------------------------------------------------------

def reduce_pair(form: DiscreteConnectionForm, q0, q1) -> ReducedPair:
    """Identify the group orbit of (q0, q1) with base points plus an adjoint class.

    The class representative is canonicalized by translating q0 onto the
    section value over its base point and conjugating the group factor by
    the same translation.  The conjugation is performed even for abelian
    groups so the data model stays correct beyond them.
    """
    bundle = form.bundle
    g = form.evaluate(q0, q1)
    r0 = bundle.project(q0)
    r1 = bundle.project(q1)
    canonical = bundle.local_section(r0)
    h = bundle.fiber_translation(q0, canonical)
    rep_group = bundle.group_compose(
        bundle.group_compose(h, g), bundle.group_inverse(h))
    return ReducedPair(r0, r1, canonical, rep_group)


def reconstruct_pair(form: DiscreteConnectionForm, rp: ReducedPair):
    """Inverse of :func:`reduce_pair` on canonical representatives.

    Returns the representative pair of the original orbit; starting from
    a canonical pair (q0 equal to the section value over its base) the
    round trip is the identity.
    """
    lift = lift_from_form(form)
    h1 = lift.lift(rp.rep_point, rp.base1)
    q1 = form.bundle.act(rp.rep_group, h1)
    return rp.rep_point, q1


# ---------------------------------------------------------------------------
# pointwise probes of horizontal slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceProbeReport:
    """Separation statistics between a horizontal slice and a group orbit."""

    budget: int
    slice_samples: int
    orbit_samples: int
    excluded: int
    min_separation: float
    threshold: float
    passed: bool


def _solve_group_angle(form: DiscreteConnectionForm, q, p) -> float:
    """Angle t such that act(e^{it}, p) lies on the horizontal slice through q.

    Runs a coarse scan followed by bracketed bisection with secant
    refinement on the group coordinate; raises ProbeFailed when a probed
    point leaves the form's domain, no bracket is found or the residual
    does not converge.  The scan angles are evaluated in one batch and
    each bracket in another; the refinement steps run one at a time.
    """
    bundle = form.bundle

    def residuals(thetas: Sequence[float]) -> list[float]:
        moved = [bundle.act(CircleElement(theta), p) for theta in thetas]
        if not all(form.in_domain(q, m) for m in moved):
            raise ProbeFailed("probe left the form's domain while scanning the fiber")
        return [g.angle for g in form.evaluate_many([(q, m) for m in moved])]

    n_scan = 24
    spacing = math.tau / n_scan
    thetas = [-math.pi + (k + 0.5) * spacing for k in range(n_scan)]
    values = residuals(thetas)
    best = min(range(n_scan), key=lambda k: abs(values[k]))

    half = spacing
    a, b = thetas[best] - half, thetas[best] + half
    fa, fb = residuals((a, b))
    widened = 0
    while fa * fb > 0.0 and widened < 2:
        half *= 2.0
        a, b = thetas[best] - half, thetas[best] + half
        fa, fb = residuals((a, b))
        widened += 1
    if fa * fb > 0.0:
        raise ProbeFailed("no sign change bracketing the slice equation root")

    best_theta, best_val = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    for _ in range(_ROOT_MAX_ITER):
        if abs(best_val) <= _ROOT_ATOL or (b - a) < 1e-14:
            break
        x = None
        if fb != fa:
            x = b - fb * (b - a) / (fb - fa)  # secant candidate
        if x is None or not (a < x < b) or not math.isfinite(x):
            x = 0.5 * (a + b)
        (fx,) = residuals((x,))
        if abs(fx) < abs(best_val):
            best_theta, best_val = x, fx
        if fa * fx <= 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
    if abs(best_val) > 1e-8:
        raise ProbeFailed(f"slice equation residual {best_val:.3e} did not converge")
    return best_theta


def _slice_point(form: DiscreteConnectionForm, q, p):
    theta = _solve_group_angle(form, q, p)
    return form.bundle.act(CircleElement(theta), p)


def slice_probe(form: DiscreteConnectionForm, q, budget: int,
                *, exclusion_radius: float = 1e-3,
                separation: float = 1e-2,
                seed: int = 0,
                box: float = 2.0) -> SliceProbeReport:
    """Sample the horizontal slice through q and the orbit of q; measure separation.

    Slice points are found by root-solving the group coordinate along
    random fiber directions; orbit points are random group translates of
    q.  Samples inside ``exclusion_radius`` of q are dropped and the
    minimum cross distance of the rest must exceed ``separation``; with
    no slice sample or no orbit sample kept, the probe does not pass.
    """
    bundle = form.bundle
    rng = substream(seed, 0x511CE)
    slice_pts = []
    orbit_pts = []
    for _ in range(budget):
        p = bundle.sample_point(rng, box=box)
        attempts = 0
        while not form.in_domain(q, p):
            p = bundle.sample_point(rng, box=box)
            attempts += 1
            if attempts > 100:
                raise ProbeFailed("could not sample a fiber direction in the domain")
        slice_pts.append(_slice_point(form, q, p))
        orbit_pts.append(bundle.act(bundle.sample_group(rng), q))

    kept_slice = [p for p in slice_pts if bundle.distance(p, q) > exclusion_radius]
    kept_orbit = [p for p in orbit_pts if bundle.distance(p, q) > exclusion_radius]
    excluded = (len(slice_pts) - len(kept_slice)) + (len(orbit_pts) - len(kept_orbit))

    min_sep = math.inf
    for s in kept_slice:
        for o in kept_orbit:
            d = bundle.distance(s, o)
            if d < min_sep:
                min_sep = d
    return SliceProbeReport(
        budget=budget,
        slice_samples=len(kept_slice),
        orbit_samples=len(kept_orbit),
        excluded=excluded,
        min_separation=min_sep,
        threshold=separation,
        passed=bool(kept_slice and kept_orbit) and min_sep > separation,
    )


def tangent_split_check(form: DiscreteConnectionForm, q,
                        *, fd_step: float = 1e-5,
                        svd_cutoff: float = 1e-6,
                        drop_orbit: bool = False) -> bool:
    """Check that slice and orbit tangents at q together span the total tangent space.

    Slice tangents come from central finite differences of the slice
    parametrization over base directions; the orbit tangent from the
    derivative of the group action at the identity.  The combined matrix
    must have numerical rank dim_total (or dim_total - dim_group when the
    orbit column is dropped, which checks the dimension count).
    """
    bundle = form.bundle
    columns = []
    for curve in bundle.base_direction_curves(q):
        plus = _slice_point(form, q, curve(fd_step))
        minus = _slice_point(form, q, curve(-fd_step))
        columns.append(bundle.embed_difference(plus, minus) / (2.0 * fd_step))
    if not drop_orbit:
        gp = CircleElement(fd_step)
        plus = bundle.act(gp, q)
        minus = bundle.act(bundle.group_inverse(gp), q)
        columns.append(bundle.embed_difference(plus, minus) / (2.0 * fd_step))

    matrix = np.column_stack(columns)
    svals = np.linalg.svd(matrix, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(svals > svals[0] * svd_cutoff))
    expected = bundle.dim_total - (bundle.dim_group if drop_orbit else 0)
    return rank == expected
