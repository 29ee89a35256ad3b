"""Discrete connection forms, horizontal lifts, and derived structure.

A discrete connection form assigns a group element to pairs of nearby
total points, vanishing on the diagonal and transforming equivariantly
under the product group action.  This module implements:

* the form / lift objects with explicit domain predicates, each pair's
  domain checked once, where it comes in (a public call or a draw),
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

Targets are built from row functions in the bundle's layout (see
:mod:`disconn.bundle`), so objects are built only at the public calls.
Forms and lifts are immutable and their evaluations pure, so concurrent
evaluation is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import CircleElement, canonical_rows
from .bundle import DEFAULT_BOX, PrincipalBundle, TrivialBundle, box_fits
from .errors import InvalidC, InvalidConfig, OutOfDomain, ProbeFailed
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


def _finite_above_zero(name: str, value: float) -> None:
    """Raise InvalidConfig unless ``value`` is finite and above 0."""
    if not (math.isfinite(value) and value > 0):
        raise InvalidConfig(f"{name} must be finite and above 0, got {value}")


def _draw_rows(steps: tuple, targets: dict, states: np.ndarray, box: float,
               rejected: list, exhausted: Callable, offsets: Optional[np.ndarray] = None,
               drawn: Sequence[np.ndarray] = ()) -> list[np.ndarray]:
    """Rows of one sample of inputs from ``targets["form"]``'s bundle per stream
    state, after the ``drawn`` input rows, from its draws past ``offsets[i]`` (0).

    ``steps`` is (kind, check) per input in draw order: kind is "point",
    "base" or "group", and check(targets, input rows so far), if any, runs
    once that input is drawn, on the rows every earlier check passed, and
    returns their mask.  A failed check adds one to ``rejected[0]`` and moves
    the row's offset past the draws that attempt read; the rejected rows are
    redrawn together, and after ``_RESAMPLE_LIMIT`` passes ``exhausted(i)`` is
    raised for the first row i left.  ``offsets`` ends past each row's sample.
    """
    bundle = targets["form"].bundle
    kinds = [kind for kind, _ in steps]
    ends = list(accumulate(map(bundle.draw_count, kinds)))
    offsets = np.zeros(len(states), dtype=np.uint64) if offsets is None else offsets
    samples, rows = None, np.arange(len(states))
    for _ in range(_RESAMPLE_LIMIT):
        values = bundle.sample_rows(kinds, draw_rows(states[rows], offsets[rows], ends[-1]), box)
        samples = samples or [np.empty(v.shape[:-1] + (len(states),)) for v in values]
        live, moved = np.arange(len(rows)), np.full(len(rows), ends[-1], dtype=np.uint64)
        for j, ((_, check), end) in enumerate(zip(steps, ends)):
            if check is not None and live.size:
                held = check(targets, [*(d[..., rows[live]] for d in drawn),
                                       *(v[..., live] for v in values[:j + 1])])
                moved[live[~held]] = end
                live = live[held]
        for sample, v in zip(samples, values):
            sample[..., rows[live]] = v[..., live]
        offsets[rows] += moved
        rows = np.delete(rows, live)
        rejected[0] += len(rows)
        if not len(rows):
            return [*drawn, *samples]
    raise exhausted(int(rows[0]))


def _narrow(mask: np.ndarray, test: Callable, *rows: np.ndarray) -> np.ndarray:
    """``mask`` where ``test`` holds too; it runs on the columns in the mask only."""
    mask = np.array(mask)
    if mask.any():
        mask[mask] = test(*(r[..., mask] for r in rows))
    return mask


def _pair_in(*names):
    """Check that the first and the latest input drawn, as a pair, lie in
    each named target's domain; with one input drawn that pair is (q, q)."""
    def check(targets, drawn):
        held = np.ones(drawn[0].shape[-1], dtype=bool)
        for name in names:
            held = _narrow(held, targets[name].domain_rows, drawn[0], drawn[-1])
        return held
    return check


class _Target:
    """What forms and lifts share: values on pairs with an explicit domain.

    Items are the rows (a, b) of their pairs, with a batch axis or, for one
    pair at a public call, without it; ``domain_rows`` and ``values_rows``
    map them to a domain mask and value rows, each pair with the exact bits
    of a batch of one.  The public calls check every pair's domain, while
    ``split`` and :func:`answer_queries` serve pairs already checked.
    ``split(items)`` is ``(root, root_items, finish)``, with the value rows
    ``finish(root._values_fn(*root_items))`` and neither map reading the
    root's answers; a target is its own root unless it has a ``split_fn``.
    """

    def __init__(self, bundle: PrincipalBundle, provenance: str, domain_rows: Callable,
                 values_rows: Optional[Callable] = None, *, split_fn: Optional[Callable] = None,
                 out_of_domain_error: type = OutOfDomain):
        self.bundle = bundle
        self.provenance = provenance
        self.domain_rows = domain_rows
        self._values_fn = values_rows
        self._split_fn = split_fn
        self._out_of_domain_error = out_of_domain_error

    def item_rows(self, items: Sequence[tuple]) -> tuple:
        """The rows (a, b) of a list of pairs, at least one."""
        return tuple(map(self.bundle.rows_of, self._kinds, zip(*items)))

    def in_domain(self, a, b) -> bool:
        return bool(self.domain_rows(*map(self.bundle._row, self._kinds, (a, b))))

    def split(self, items: tuple) -> tuple:
        if self._split_fn is None:
            return self, items, lambda answers: answers
        return self._split_fn(items)

    def _answer(self, rows: tuple) -> np.ndarray:
        """The value rows of item rows, each checked in the domain."""
        if not self.domain_rows(*rows).all():
            raise self._out_of_domain_error(
                f"pair outside the domain of this {self.provenance} {self._noun}")
        root, root_items, finish = self.split(rows)
        return finish(root._values_fn(*root_items))

    def _one(self, a, b):
        rows = tuple(map(self.bundle._row, self._kinds, (a, b)))  # without the batch axis
        return self.bundle._one(self._kinds[2], self._answer(rows))

    def _many(self, items: Sequence[tuple]) -> list:
        if not items:
            return []
        return self.bundle.values_of(self._kinds[2], self._answer(self.item_rows(items)))


class DiscreteConnectionForm(_Target):
    """Group-valued map on pairs of total points with an explicit domain.

    ``provenance`` records how the form was built: one of ``closed-form``,
    ``C-built``, ``geodesic-built`` or ``lmw-variant``.  It is built from a
    row mask ``domain_rows`` and either a row evaluator ``values_rows`` of
    point rows to angles or a ``split_fn`` to its root, and every caller
    evaluates it the same way (see :class:`_Target`).  A pair outside the
    domain of a public call raises ``out_of_domain_error``.
    """

    _noun = "form"
    _kinds = ("point", "point", "group")

    @property
    def flagged_non_connection(self) -> bool:
        """True for the variant: form-shaped, but it violates equivariance."""
        return self.provenance == "lmw-variant"

    def evaluate(self, q0, q1) -> CircleElement:
        return self._one(q0, q1)

    def evaluate_many(self, pairs: Sequence[tuple]) -> list[CircleElement]:
        """Evaluate in-domain pairs, each exactly as a batch of one would."""
        return self._many(pairs)


class DiscreteHorizontalLift(_Target):
    """Map (q0, r1) to the unique horizontal partner of q0 over r1.

    Built like a form, on point rows q0 and base rows r1, with point rows
    as values; domain checks and ``split`` are as for every target.
    """

    _noun = "lift"
    _kinds = ("point", "base", "point")

    def lift(self, q0, r1):
        """Horizontal partner of q0 over r1.

        Raises OutOfDomain for pairs outside the lift's domain, which for a
        form-derived lift excludes every r1 outside its section chart.
        """
        return self._one(q0, r1)

    def lift_many(self, items: Sequence[tuple]) -> list:
        return self._many(items)


def answer_queries(queries: Sequence[tuple]) -> list[np.ndarray]:
    """Answer rows of (target, item rows) queries from one call to their root.

    The items must lie in their targets' domains; nothing here checks them.
    """
    splits = [target.split(items) for target, items in queries]
    if len({id(root) for root, _, _ in splits}) > 1:
        raise ValueError("queries must share one root")
    if not splits:
        return []
    sizes = [part[0].shape[-1] for _, part, _ in splits]
    answers = splits[0][0]._values_fn(
        *(np.concatenate(rows, axis=-1) for rows in zip(*(part for _, part, _ in splits))))
    return [finish(answers[..., end - size:end])
            for (_, _, finish), size, end in zip(splits, sizes, accumulate(sizes))]


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
    return lambda r0, r1: np.zeros(r0.shape[1:])


def _linear_c(params: Sequence[float], dim: int) -> Callable:
    weights = tuple(float(p) for p in params) if params else (1.0,) * dim
    if len(weights) != dim:
        raise InvalidC(f"linear family needs {dim} weights, got {len(weights)}")
    if not all(math.isfinite(w) for w in weights):
        raise InvalidC(f"linear family weights must be finite, got {weights}")

    def linear(r0, r1):
        # added left to right: from Python 3.12, sum() compensates
        angle = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for w, a, b in zip(weights, r0, r1):
                angle = angle + w * (b - a)
        if not np.isfinite(angle).all():
            k = np.flatnonzero(~np.isfinite(angle))[0]
            r0, r1 = r0.reshape(dim, -1), r1.reshape(dim, -1)
            raise InvalidC(f"linear family angle at {tuple(r0[:, k].tolist())}, "
                           f"{tuple(r1[:, k].tolist())} is not finite: {np.ravel(angle)[k]}")
        return canonical_rows(angle)

    return linear


_C_FACTORIES = {"constant": _constant_c, "linear": _linear_c}
#: names of the built-in C families, the first of them the default
C_FAMILIES = tuple(_C_FACTORIES)


def make_c_function(family: str, params: Sequence[float] = (), dim: int = 1) -> Callable:
    """Base-pair function C from the fixed registry of parametric families.

    C is a row function: it maps ``(dim, n)`` base rows r0, r1 to the
    ``(n,)`` canonical angles of C(r0, r1), and the ``(dim,)`` rows of one
    pair to one angle.  ``constant`` takes no parameters (given any, it
    raises InvalidC) and always returns the identity.  ``linear`` returns
    exp(i * sum_k w_k (r1_k - r0_k)) with weights taken from ``params``
    (default: all ones), which must be finite; a pair at which that angle
    overflows raises InvalidC.
    """
    if family not in _C_FACTORIES:
        raise InvalidC(f"unknown C family {family!r} (available: {', '.join(C_FAMILIES)})")
    return _C_FACTORIES[family](params, dim)


def _c_domain(bundle: TrivialBundle, c_fn: Callable, base_domain: Optional[Callable]) -> Callable:
    """The base-pair domain mask, every pair without ``base_domain``, after
    checking C(r, r) = e on probe points; a NaN angle fails that check."""
    rng = SplitMix64(_C_VALIDATION_SEED)
    probes = [tuple(0.0 for _ in range(bundle.dim))]
    for _ in range(_C_VALIDATION_SAMPLES):
        probes.append(tuple(rng.uniform_in(-DEFAULT_BOX, DEFAULT_BOX)
                            for _ in range(bundle.dim)))
    rows = bundle.rows_of("base", probes)
    angles = c_fn(rows, rows)
    for r, angle in zip(probes, angles.tolist()):
        if not abs(angle) <= _C_DIAGONAL_ATOL:
            raise InvalidC(f"C({r}, {r}) has angle {angle:.3e}, expected identity")
    return base_domain or (lambda r0, r1: np.ones(r0.shape[1:], dtype=bool))


def trivial_form_from_C(bundle: TrivialBundle, c_fn: Callable,
                        *, base_domain: Optional[Callable] = None) -> DiscreteConnectionForm:
    """Connection form g1 * C(r0, r1) * g0^{-1} on a trivial bundle.

    ``c_fn`` is a row function as :func:`make_c_function` returns one.
    ``base_domain`` optionally restricts the base-pair domain: a row mask
    of base rows r0, r1 shaped like C's angles.  The total domain is its
    preimage under the double projection.
    """
    dom = _c_domain(bundle, c_fn, base_domain)

    def values(q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
        # q1.g * C(r0, r1) * q0.g.inverse(), building only the result
        return canonical_rows(canonical_rows(q1[-1] + c_fn(q0[:-1], q1[:-1]))
                              + canonical_rows(-q0[-1]))

    return DiscreteConnectionForm(bundle, "C-built", lambda q0, q1: dom(q0[:-1], q1[:-1]),
                                  values)


def trivial_lift_from_C(bundle: TrivialBundle, c_fn: Callable,
                        *, base_domain: Optional[Callable] = None) -> DiscreteHorizontalLift:
    """Horizontal lift (q0, r1) -> (r1, g0 * C(r0, r1)^{-1}) on a trivial bundle,
    from a row ``c_fn`` and ``base_domain`` as :func:`trivial_form_from_C` takes."""
    dom = _c_domain(bundle, c_fn, base_domain)

    def lift(q0: np.ndarray, r1: np.ndarray) -> np.ndarray:
        # g0 * C(r0, r1).inverse(), building only the result
        g = canonical_rows(q0[-1] + canonical_rows(-c_fn(q0[:-1], r1)))
        return np.concatenate([r1, g[None]])

    return DiscreteHorizontalLift(bundle, "C-built", lambda q0, r1: dom(q0[:-1], r1), lift)


# ---------------------------------------------------------------------------
# conversions between forms and lifts
# ---------------------------------------------------------------------------

def lift_from_form(form: DiscreteConnectionForm,
                   section: Optional[Callable] = None) -> DiscreteHorizontalLift:
    """Horizontal lift induced by a form through a local section.

    The lift sends (q0, r1) to act(A(q0, s(r1))^{-1}, s(r1)) for a section
    s over the base.  The result does not depend on the section choice
    (exercised by the test suite with a second chart, not assumed).  A
    ``section`` is a row kernel like the bundle's ``section_rows``, the
    default: it maps base rows to point rows over them, NaN outside its
    chart, and the chart mask.
    """
    bundle = form.bundle
    sec = section or bundle.section_rows

    def dom(q0, r1):
        s, defined = sec(r1)
        return _narrow(defined, form.domain_rows, q0, s)

    def split(items):
        q0, r1 = items
        s = sec(r1)[0]
        root, root_pairs, finish = form.split((q0, s))
        return root, root_pairs, lambda answers: bundle.act_rows(
            canonical_rows(-finish(answers)), s)

    return DiscreteHorizontalLift(bundle, form.provenance, dom, split_fn=split)


def form_from_lift(lift: DiscreteHorizontalLift) -> DiscreteConnectionForm:
    """Connection form recovered from a lift by fiber translation.

    evaluate(q0, q1) translates the lifted point over project(q1) onto q1;
    composing with :func:`lift_from_form` is the identity in both orders
    on sampled domains.
    """
    bundle = lift.bundle

    def dom(q0, q1):
        return lift.domain_rows(q0, bundle.project_rows(q1))

    def split(pairs):
        q0, q1 = pairs
        root, root_items, finish = lift.split((q0, bundle.project_rows(q1)))
        return root, root_items, lambda answers: bundle.fiber_rows(finish(answers), q1)

    return DiscreteConnectionForm(bundle, lift.provenance, dom, split_fn=split)


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


def _in_probe_domain(form: DiscreteConnectionForm, pairs: tuple) -> tuple:
    """The pair rows, once each lies in the form's domain; else ProbeFailed."""
    if not form.domain_rows(*pairs).all():
        raise ProbeFailed("probe left the form's domain")
    return pairs


def _slice_points(form: DiscreteConnectionForm, pairs: tuple) -> np.ndarray:
    """Point of each p's fiber on the horizontal slice through q, per (q, p)
    column of the pair rows, checked.

    Equivariance gives every pair one vertical-times-horizontal split, so
    the slice through q meets the fiber of p at act(A(q, p)^{-1}, p), the
    partner :func:`decompose_pair` computes.  Both rounds of evaluation are
    one batch each: the values at (q, p), checked by the caller, then the
    values at the partners, which must be horizontal within
    ``HORIZONTAL_ANGLE_ATOL``.  Raises ProbeFailed when a partner leaves
    the form's domain or its residual exceeds that tolerance.
    """
    q, p = pairs
    partners = form.bundle.act_rows(canonical_rows(-answer_queries([(form, pairs)])[0]), p)
    residuals = np.abs(answer_queries([(form, _in_probe_domain(form, (q, partners)))])[0])
    over = residuals[~(residuals <= HORIZONTAL_ANGLE_ATOL)]
    if over.size:
        raise ProbeFailed(
            f"slice point residual {over[0]:.3e} exceeds "
            f"{HORIZONTAL_ANGLE_ATOL:.0e}: the form is not equivariant "
            f"along that fiber")
    return partners


def _fiber_direction_apart(targets, drawn) -> bool:
    """(q, p) lies in the form's domain and the base points of q and p lie more
    than 2 ``_EXCLUSION_RADIUS`` apart.  The projection is 2-Lipschitz on the
    Hopf bundle and 1-Lipschitz on trivial bundles, so the slice point on the
    fiber of p lies farther than the radius from q."""
    q, p, bundle = drawn[0], drawn[-1], targets["form"].bundle
    return targets["form"].domain_rows(q, p) & (bundle.base_distance_rows(
        bundle.project_rows(q), bundle.project_rows(p)) > 2.0 * _EXCLUSION_RADIUS)


def _orbit_point_apart(targets, drawn) -> bool:
    """act(g, q) lies farther than ``_EXCLUSION_RADIUS`` from q."""
    q, g, bundle = drawn[0], drawn[-1], targets["form"].bundle
    return bundle.distance_rows(bundle.act_rows(g, q), q) > _EXCLUSION_RADIUS


#: after the probed q: a fiber direction p, then an orbit element g, each apart from q
_PROBE_STEPS = (("point", _fiber_direction_apart), ("group", _orbit_point_apart))


def slice_probes(form: DiscreteConnectionForm, points: Sequence, budget: int,
                 *, separation: float = DEFAULT_SEPARATION, seed: int = 0,
                 box: float = DEFAULT_BOX) -> list[SliceProbeReport]:
    """Sample the horizontal slice through each point q and the orbit of q.

    Slice points are the horizontal partners of random points p, checked
    to be horizontal (see :func:`_slice_points`), and orbit points random
    group translates of q; point k draws ``budget`` of each from seed
    ``seed + k`` in the row loop, which checks each (q, p) once and redraws
    any sample that could land within ``_EXCLUSION_RADIUS`` of q.  One
    :func:`_slice_points` call then serves every point, so a ProbeFailed
    leaves no point computed.  The minimum cross distance must exceed
    ``separation``.  Raises InvalidConfig for no points, a budget below one,
    a separation that is not finite and above 0, and a box that fails
    :func:`~disconn.bundle.box_fits` on the base, which would make every
    probe vacuous, draw outside any box or overflow a distance.
    """
    if not len(points):
        raise InvalidConfig("slice probes need at least one point")
    if budget < 1:
        raise InvalidConfig(f"budget must be at least 1, got {budget}")
    _finite_above_zero("separation", separation)
    if not box_fits(box, form.bundle.dim_base):
        raise InvalidConfig(f"box must be finite and above 0 with a finite squared "
                            f"diameter (2 box)^2 dim, got {box}")
    bundle = form.bundle
    targets = {"form": form}
    exhausted = ProbeFailed(
        "could not sample a fiber direction in the domain and apart from the point")
    rejected = [0]
    states = substream_states(range(seed, seed + len(points)), 0x511CE)
    offsets, drawn = np.zeros(len(points), dtype=np.uint64), [bundle.rows_of("point", points)]
    rounds = [_draw_rows(_PROBE_STEPS, targets, states, box, rejected, lambda _: exhausted,
                         offsets, drawn) for _ in range(budget)]
    # point k's budget samples in draw order, then point k + 1's
    q, p, g = (np.stack(rows, axis=-1).reshape(*rows[0].shape[:-1], -1) for rows in zip(*rounds))
    slice_pts, orbit_pts = _slice_points(form, (q, p)), bundle.act_rows(g, q)

    reports = []
    for index in range(len(points)):
        own = slice(index * budget, (index + 1) * budget)
        min_sep = float(bundle.distance_rows(slice_pts[:, own, None],
                                             orbit_pts[:, None, own]).min())
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
    ends = bundle.values_of("point", _slice_points(form, _in_probe_domain(form, form.item_rows(
        [(q, curve(t)) for curve in bundle.base_direction_curves(q)
         for t in (_FD_STEP, -_FD_STEP)]))))
    columns = [bundle.embed_difference(plus, minus) / (2.0 * _FD_STEP)
               for plus, minus in zip(ends[::2], ends[1::2])]
    gp = CircleElement(_FD_STEP)
    columns.append(bundle.embed_difference(bundle.act(gp, q), bundle.act(gp.inverse(), q))
                   / (2.0 * _FD_STEP))

    matrix = np.column_stack(columns)
    # descending singular values: a zero matrix has rank 0 here as well
    svals = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(svals > svals[0] * _SVD_CUTOFF)) == bundle.dim_total
