"""Discrete connection forms, horizontal lifts, and derived structure.

A discrete connection form assigns a group element to pairs of nearby
total points, vanishing on the diagonal and transforming equivariantly
under the product group action.  This module implements:

* the form / lift objects with explicit domain predicates, each pair's
  domain checked once, where it comes in (a public call or a draw), never
  again on its way to the root target that answers it,
* the unique vertical-times-horizontal decomposition of a pair,
* constructions of forms and lifts on trivial bundles from a base-pair
  function C,
* the two mutually inverse conversions between forms and lifts,
* pointwise numerical probes of horizontal slices (separation from the
  group orbit and transversality of tangents), whose slice points are
  the horizontal partners of the pair decomposition, each re-evaluated
  to check that it is horizontal; every slice and orbit sample is drawn
  away from the probed point, so a probe compares its whole budget, and
* the reduced-space identification sending a pair to base points plus an
  adjoint-bundle class.

Forms and lifts are immutable after construction and their evaluations
are pure, so concurrent evaluation is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import CIRCLE_IDENTITY, CircleElement, canonical_angle
from .bundle import DEFAULT_BOX, PrincipalBundle, TrivialBundle, TrivialPoint
from .errors import InvalidC, InvalidConfig, OutOfDomain, ProbeFailed, SectionUndefined
from .rng import SplitMix64, draw_rows, substream_states

#: a pair is horizontal when its group value has angle magnitude below this
HORIZONTAL_ANGLE_ATOL = 1e-8
#: candidates drawn for one sample before its domain counts as unreachable
_RESAMPLE_LIMIT = 100
#: slice and orbit samples are drawn farther than this from the probed point
_EXCLUSION_RADIUS = 1e-3
#: step of the finite differences behind slice and orbit tangents
_FD_STEP = 1e-5
#: singular values below this fraction of the largest do not add to the rank
_SVD_CUTOFF = 1e-6
#: default distance a slice sample must keep from every orbit sample
DEFAULT_SEPARATION = 1e-2


def _draw_rows(steps: tuple, targets: dict, states: np.ndarray, box: float,
               rejected: list, exhausted: Callable, offsets: Optional[list] = None,
               drawn: Optional[Sequence[tuple]] = None) -> list[tuple]:
    """One sample of inputs from ``targets["form"]``'s bundle per stream state,
    drawn after the row's ``drawn`` inputs from its draws past ``offsets[i]`` (0).

    ``steps`` is (kind, check) per input in draw order: kind is "point",
    "base" or "group", and check(targets, inputs so far), if any, runs once
    that input is drawn.  A failed check adds one to ``rejected[0]`` and moves
    the row's offset past the draws that attempt read; the rejected rows are
    redrawn together, and after ``_RESAMPLE_LIMIT`` passes ``exhausted(i)`` is
    raised for the first row i left.  ``offsets`` ends past each row's sample.
    """
    bundle = targets["form"].bundle
    kinds = [kind for kind, _ in steps]
    ends = list(accumulate(map(bundle.draw_count, kinds)))
    offsets = [0] * len(states) if offsets is None else offsets
    samples, rows = [None] * len(states), range(len(states))
    for _ in range(_RESAMPLE_LIMIT):
        block = draw_rows(states[rows], [offsets[i] for i in rows], ends[-1])
        retry = []
        for i, values in zip(rows, zip(*bundle.sample_rows(kinds, block, box))):
            inputs = [*drawn[i]] if drawn else []
            for (_, check), end, value in zip(steps, ends, values):
                inputs.append(value)
                if check is not None and not check(targets, inputs):
                    retry.append(i)
                    break
            else:
                samples[i] = tuple(inputs)
            offsets[i] += end
        rejected[0] += len(retry)
        if not retry:
            return samples
        rows = retry
    raise exhausted(rows[0])


def _pair_in(*names):
    """Check that the first and the latest input drawn, as a pair, lie in
    each named target's domain; with one input drawn that pair is (q, q)."""
    def check(targets, drawn):
        for name in names:
            if not targets[name].in_domain(drawn[0], drawn[-1]):
                return False
        return True
    return check


class _Target:
    """What forms and lifts share: values on pairs with an explicit domain.

    A pair's domain is checked once, by whatever brings it in from outside:
    the public calls check every pair, while ``split`` and
    :func:`answer_queries` serve pairs already checked and never check.  An
    evaluator of many pairs must give each pair the exact bits of a batch of
    one, since reports keep the values their batch computed.

    ``split(items)`` is ``(root, root_items, finish)``, with the values
    ``finish(root(root_items))`` and neither map reading the root's answers;
    a target is its own root unless it has a ``split_fn``.
    """

    _out_of_domain_error = OutOfDomain

    def __init__(self, bundle: PrincipalBundle,
                 fn: Optional[Callable],
                 in_domain_fn: Callable,
                 provenance: str,
                 *,
                 split_fn: Optional[Callable] = None):
        self.bundle = bundle
        self.provenance = provenance
        self._values_fn = lambda items: [fn(a, b) for a, b in items]
        self._in_domain_fn = in_domain_fn
        self._split_fn = split_fn

    def in_domain(self, a, b) -> bool:
        return self._in_domain_fn(a, b)

    def split(self, items: Sequence[tuple]) -> tuple:
        if self._split_fn is None:
            return self._values_fn, items, list
        return self._split_fn(items)

    def _checked_values(self, items: Sequence[tuple]) -> list:
        for a, b in items:
            if not self._in_domain_fn(a, b):
                raise self._out_of_domain_error(
                    f"pair outside the domain of this {self.provenance} {self._noun}")
        return answer_queries([(self, items)])[0]


class DiscreteConnectionForm(_Target):
    """Group-valued map on pairs of total points with an explicit domain.

    ``provenance`` records how the form was built: one of ``closed-form``,
    ``C-built``, ``geodesic-built`` or ``lmw-variant``.  It is built from
    a per-pair ``evaluate_fn``, an ``evaluate_many_fn`` on a list of pairs
    or a ``split_fn`` to its root, and every caller evaluates it the same
    way.  Domain checks and ``split`` are as for every target (see
    :class:`_Target`).
    """

    _noun = "form"

    def __init__(self, bundle: PrincipalBundle,
                 evaluate_fn: Optional[Callable],
                 in_domain_fn: Callable,
                 provenance: str,
                 *,
                 evaluate_many_fn: Optional[Callable] = None,
                 split_fn: Optional[Callable] = None,
                 out_of_domain_error: type = OutOfDomain):
        super().__init__(bundle, evaluate_fn, in_domain_fn, provenance, split_fn=split_fn)
        self._values_fn = evaluate_many_fn or self._values_fn
        self._out_of_domain_error = out_of_domain_error

    @property
    def flagged_non_connection(self) -> bool:
        """True for the variant: form-shaped, but it violates equivariance."""
        return self.provenance == "lmw-variant"

    def evaluate(self, q0, q1) -> CircleElement:
        return self._checked_values([(q0, q1)])[0]

    def evaluate_many(self, pairs: Sequence[tuple]) -> list[CircleElement]:
        """Evaluate in-domain pairs, each exactly as a batch of one would."""
        return self._checked_values(pairs)


class DiscreteHorizontalLift(_Target):
    """Map (q0, r1) to the unique horizontal partner of q0 over r1.

    Built from a pointwise ``fn(q0, r1)`` like a form from its
    ``evaluate_fn``; domain checks and ``split`` are as for every target.
    """

    _noun = "lift"

    def lift(self, q0, r1):
        """Horizontal partner of q0 over r1.

        Raises OutOfDomain for pairs outside the lift's domain, which for a
        form-derived lift excludes every r1 outside its section chart.
        """
        return self._checked_values([(q0, r1)])[0]

    def lift_many(self, items: Sequence[tuple]) -> list:
        return self._checked_values(items)


def answer_queries(queries: Sequence[tuple]) -> list[list]:
    """Answers to (target, items) queries from one call to their root, if any items.

    The items must lie in their targets' domains; nothing here checks them.
    """
    splits = [target.split(items) for target, items in queries]
    if len({root for root, _, _ in splits}) > 1:
        raise ValueError("queries must share one root")
    root_items = [item for _, part, _ in splits for item in part]
    answers = iter(splits[0][0](root_items) if root_items else ())
    return [finish(islice(answers, len(part))) for _, part, finish in splits]


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
    and the form's value, since on U(1) the class of g is g itself.
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
    h1 = form.bundle.act(g.inverse(), q1)
    return Decomposition(g, h1)


# ---------------------------------------------------------------------------
# trivial-bundle constructions from a base-pair function C
# ---------------------------------------------------------------------------

#: tolerance of the diagonal normalization check C(r, r) = e
_C_DIAGONAL_ATOL = 1e-9
_C_VALIDATION_SEED = 20240915
_C_VALIDATION_SAMPLES = 32


def _constant_c(params: Sequence[float], dim: int) -> Callable:
    if params:
        raise InvalidC(f"constant family takes no parameters, got {tuple(params)}")
    return lambda r0, r1: CIRCLE_IDENTITY


def _linear_c(params: Sequence[float], dim: int) -> Callable:
    weights = tuple(float(p) for p in params) if params else (1.0,) * dim
    if len(weights) != dim:
        raise InvalidC(f"linear family needs {dim} weights, got {len(weights)}")
    if not all(math.isfinite(w) for w in weights):
        raise InvalidC(f"linear family weights must be finite, got {weights}")

    def linear(r0, r1):
        angle = sum(w * (b - a) for w, a, b in zip(weights, r0, r1))
        if not math.isfinite(angle):
            raise InvalidC(f"linear family angle at {r0}, {r1} is not finite: {angle}")
        return CircleElement(angle)

    return linear


_C_FACTORIES = {"constant": _constant_c, "linear": _linear_c}
#: names of the built-in C families, the first of them the default
C_FAMILIES = tuple(_C_FACTORIES)


def make_c_function(family: str, params: Sequence[float] = (), dim: int = 1) -> Callable:
    """Base-pair function from the fixed registry of parametric families.

    ``constant`` takes no parameters (given any, it raises InvalidC) and
    always returns the identity.  ``linear`` returns
    exp(i * sum_k w_k (r1_k - r0_k)) with weights taken from ``params``
    (default: all ones), which must be finite; a pair at which that angle
    overflows raises InvalidC.
    """
    if family not in _C_FACTORIES:
        raise InvalidC(f"unknown C family {family!r} (available: {', '.join(C_FAMILIES)})")
    return _C_FACTORIES[family](params, dim)


def _validate_c(bundle: TrivialBundle, c_fn: Callable) -> None:
    rng = SplitMix64(_C_VALIDATION_SEED)
    probes = [tuple(0.0 for _ in range(bundle.dim))]
    for _ in range(_C_VALIDATION_SAMPLES):
        probes.append(tuple(rng.uniform_in(-DEFAULT_BOX, DEFAULT_BOX)
                            for _ in range(bundle.dim)))
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
        # q1.g * C(r0, r1) * q0.g.inverse(), building only the result
        c = c_fn(q0.r, q1.r)
        return CircleElement(canonical_angle(q1.g.angle + c.angle)
                             + canonical_angle(-q0.g.angle))

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
        # g0 * C(r0, r1).inverse(), building only the result
        r1 = tuple(r1)
        return TrivialPoint(r1, CircleElement(q0.g.angle + canonical_angle(-c_fn(q0.r, r1).angle)))

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

    def split(items):
        sections = [sec(r1) for _, r1 in items]
        root, root_pairs, finish = form.split(
            [(q0, s) for (q0, _), s in zip(items, sections)])
        return root, root_pairs, lambda answers: [
            bundle.act(g.inverse(), s) for g, s in zip(finish(answers), sections)]

    return DiscreteHorizontalLift(bundle, None, dom, form.provenance, split_fn=split)


def form_from_lift(lift: DiscreteHorizontalLift) -> DiscreteConnectionForm:
    """Connection form recovered from a lift by fiber translation.

    evaluate(q0, q1) translates the lifted point over project(q1) onto q1;
    composing with :func:`lift_from_form` is the identity in both orders
    on sampled domains.
    """
    bundle = lift.bundle

    def dom(q0, q1) -> bool:
        return lift.in_domain(q0, bundle.project(q1))

    def split(pairs):
        root, root_items, finish = lift.split(
            [(q0, bundle.project(q1)) for q0, q1 in pairs])
        return root, root_items, lambda answers: [
            bundle.fiber_translation(p, q1)
            for p, (_, q1) in zip(finish(answers), pairs)]

    return DiscreteConnectionForm(bundle, None, dom, lift.provenance, split_fn=split)


# ---------------------------------------------------------------------------
# reduced-space identification
# ---------------------------------------------------------------------------

def reduce_pair(form: DiscreteConnectionForm, q0, q1) -> ReducedPair:
    """Identify the group orbit of (q0, q1) with base points plus an adjoint class.

    The class is represented by the section value over the base point of
    q0 and the form's value g: the group is U(1), on which conjugation
    fixes every element, so the class of g is g.
    """
    bundle = form.bundle
    r0 = bundle.project(q0)
    return ReducedPair(r0, bundle.project(q1), bundle.local_section(r0), form.evaluate(q0, q1))


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
    """Least distance between ``budget`` slice samples and ``budget`` orbit samples."""

    budget: int
    min_separation: float
    threshold: float
    passed: bool


def _in_probe_domain(form: DiscreteConnectionForm, pairs: list) -> list:
    """The pairs, once each lies in the form's domain; else ProbeFailed."""
    if not all(form.in_domain(q, p) for q, p in pairs):
        raise ProbeFailed("probe left the form's domain")
    return pairs


def _slice_points(form: DiscreteConnectionForm, pairs: Sequence[tuple]) -> list:
    """Point of each p's fiber on the horizontal slice through q, per (q, p), checked.

    Equivariance gives every pair one vertical-times-horizontal split, so
    the slice through q meets the fiber of p at act(A(q, p)^{-1}, p), the
    partner :func:`decompose_pair` computes.  Both rounds of evaluation are
    one batch each: the values at (q, p), checked by the caller, then the
    values at the partners, which must be horizontal within
    ``HORIZONTAL_ANGLE_ATOL``.  Raises ProbeFailed when a partner leaves
    the form's domain or its residual exceeds that tolerance.
    """
    bundle = form.bundle
    partners = [bundle.act(g.inverse(), p)
                for g, (_, p) in zip(answer_queries([(form, pairs)])[0], pairs)]
    partner_pairs = _in_probe_domain(form, [(q, h) for (q, _), h in zip(pairs, partners)])
    for g in answer_queries([(form, partner_pairs)])[0]:
        if not abs(g.angle) <= HORIZONTAL_ANGLE_ATOL:
            raise ProbeFailed(
                f"slice point residual {abs(g.angle):.3e} exceeds "
                f"{HORIZONTAL_ANGLE_ATOL:.0e}: the form is not equivariant "
                f"along that fiber")
    return partners


def _fiber_direction_apart(targets, drawn) -> bool:
    """(q, p) lies in the form's domain and the base points of q and p lie more
    than 2 ``_EXCLUSION_RADIUS`` apart.  The projection is 2-Lipschitz on the
    Hopf bundle and 1-Lipschitz on trivial bundles, so the slice point on the
    fiber of p lies farther than the radius from q."""
    q, p, bundle = drawn[0], drawn[-1], targets["form"].bundle
    return (targets["form"].in_domain(q, p) and bundle.base_distance(
        bundle.project(q), bundle.project(p)) > 2.0 * _EXCLUSION_RADIUS)


def _orbit_point_apart(targets, drawn) -> bool:
    """act(g, q) lies farther than ``_EXCLUSION_RADIUS`` from q."""
    q, g, bundle = drawn[0], drawn[-1], targets["form"].bundle
    return bundle.distance(bundle.act(g, q), q) > _EXCLUSION_RADIUS


#: after the probed q: a fiber direction p, then an orbit element g, each apart from q
_PROBE_STEPS = (("point", _fiber_direction_apart), ("group", _orbit_point_apart))


def slice_probes(form: DiscreteConnectionForm, points: Sequence, budget: int,
                 *, separation: float = DEFAULT_SEPARATION, seed: int = 0,
                 box: float = DEFAULT_BOX) -> list[SliceProbeReport]:
    """Sample the horizontal slice through each point q and the orbit of q.

    Slice points are the horizontal partners of random points p, checked
    to be horizontal (see :func:`_slice_points`), and orbit points random
    group translates of q; point k draws ``budget`` of each from seed
    ``seed + k``, one row per point carrying its offset across the budget in
    the row loop, which checks each (q, p) once and redraws any sample that
    could land within ``_EXCLUSION_RADIUS`` of q.  All draws come first, then
    one :func:`_slice_points` call serves every point, so a ProbeFailed at
    any point leaves no point computed.  The minimum cross distance must
    exceed ``separation``.  Raises InvalidConfig for a budget below one,
    which would compare nothing, and for a separation that is not finite
    and above 0, which every probe would pass.
    """
    if budget < 1:
        raise InvalidConfig(f"budget must be at least 1, got {budget}")
    if not (math.isfinite(separation) and separation > 0):
        raise InvalidConfig(f"separation must be finite and above 0, got {separation}")
    bundle = form.bundle
    targets = {"form": form}
    exhausted = ProbeFailed(
        "could not sample a fiber direction in the domain and apart from the point")
    rejected = [0]
    states = substream_states(range(seed, seed + len(points)), 0x511CE)
    offsets, drawn = [0] * len(points), [(q,) for q in points]
    rounds = [_draw_rows(_PROBE_STEPS, targets, states, box, rejected, lambda _: exhausted,
                         offsets, drawn) for _ in range(budget)]
    pairs, orbit_pts = [], []
    for q, p, g in chain.from_iterable(zip(*rounds)):
        pairs.append((q, p))
        orbit_pts.append(bundle.act(g, q))
    slice_pts = _slice_points(form, pairs)

    reports = []
    for index in range(len(points)):
        own = slice(index * budget, (index + 1) * budget)
        min_sep = min(bundle.distance(s, o) for s in slice_pts[own] for o in orbit_pts[own])
        reports.append(SliceProbeReport(budget=budget, min_separation=min_sep,
                                        threshold=separation, passed=min_sep > separation))
    return reports


def slice_probe(form: DiscreteConnectionForm, q, budget: int, **options) -> SliceProbeReport:
    """Separation of the horizontal slice through q from the orbit of q:
    the one-point case of :func:`slice_probes`, with the same keywords."""
    return slice_probes(form, [q], budget, **options)[0]


def tangent_split_check(form: DiscreteConnectionForm, q) -> bool:
    """Check that slice and orbit tangents at q together span the total tangent space.

    Slice tangents come from central finite differences of the slice
    parametrization over base directions, all 2 * dim_base slice points
    from one :func:`_slice_points` call on pairs checked where built; the
    orbit tangent from the derivative of the group action at the identity.
    The dim_total columns must have numerical rank dim_total, which also
    makes the dim_base slice tangents independent.
    """
    bundle = form.bundle
    ends = _slice_points(form, _in_probe_domain(
        form, [(q, curve(t)) for curve in bundle.base_direction_curves(q)
               for t in (_FD_STEP, -_FD_STEP)]))
    columns = [bundle.embed_difference(plus, minus) / (2.0 * _FD_STEP)
               for plus, minus in zip(ends[::2], ends[1::2])]
    gp = CircleElement(_FD_STEP)
    columns.append(bundle.embed_difference(bundle.act(gp, q), bundle.act(gp.inverse(), q))
                   / (2.0 * _FD_STEP))

    matrix = np.column_stack(columns)
    # descending singular values: a zero matrix has rank 0 here as well
    svals = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(svals > svals[0] * _SVD_CUTOFF)) == bundle.dim_total
