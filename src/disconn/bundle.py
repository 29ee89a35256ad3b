"""Principal bundles with circle structure group.

The abstract contract covers projection, group action, fiber translation
and a local section, plus the metric, sampling and serialization helpers
that the probes and the verification harness use; the two shipped
geometries are trivial bundles R^n x U(1) over R^n and the
unit-quaternion bundle over the 2-sphere of unit imaginary quaternions.

Distances on spheres are measured extrinsically (Euclidean in the ambient
coordinates); every tolerance in this package refers to that metric.
Bundle objects are immutable descriptors and all operations are pure.

Each operation is one row kernel, on values in the integrator's
component-major layout: (4, n) points and bases of the quaternion bundle
(a base keeps its real part, 0 or -0.0), (d + 1, n) points and (d, n)
bases of a trivial bundle, (n,) angles; one value drops the batch axis.

Sampled points reach the reports, so their bits must not depend on the
CPU.  The transcendentals of sampling come from ``math`` (``log``, and
``atan2`` in the fiber phase); the NumPy functions whose results reach a
report are ``sqrt``, ``sin``, ``cos`` and the exact ``fmod``, besides
arithmetic.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    CIRCLE_IDENTITY,
    CircleElement,
    Quaternion,
    UnitQuaternion,
    canonical_angle,
    canonical_rows,
    hamilton,
    unit_rows,
)
from .errors import InvalidConfig, NotSameFiber, SectionUndefined
from .rng import SplitMix64, angles, uniforms

#: two total points count as fiber mates when their base distance is below this
FIBER_ATOL = 1e-9
#: chart margin of the quaternion-bundle section around its excluded base point
SECTION_CHART_ATOL = 1e-6
#: default half-width of the box that flat base points are sampled in
DEFAULT_BOX = 2.0


def box_fits(box: float, dim) -> bool:
    """True when ``box`` > 0 and (2 box)^2 dim is finite: no squared distance
    between points of a box of that half-width in ``dim`` coordinates overflows."""
    try:  # products, so that a float overflow reads inf instead of raising
        return math.isfinite((2.0 * box) * (2.0 * box) * dim) and box > 0
    except OverflowError:  # a dim too large to convert to a float
        return False


class PrincipalBundle(abc.ABC):
    """Contract for a principal bundle with structure group U(1).

    A concrete geometry states ``dim_base`` and ``name`` and writes each
    operation once, as a row kernel: ``project_rows``, ``act_rows``
    (angles, points), ``fiber_rows``, ``section_rows`` (sections, NaN off
    the chart, and the chart mask), ``distance_rows`` and
    ``base_distance_rows``; it also provides the sampling and serialization
    helpers of the probes and the verification harness.  The methods on
    values run the kernels on one value, and :meth:`rows_of` and
    :meth:`values_of` convert values of a kind ("point", "base" or
    "group") to rows and back.  Group elements are :class:`CircleElement`
    values, composed with ``*`` and compared with :func:`circle_distance`.
    """

    dim_base: int
    name: str
    dim_group = 1

    @property
    def dim_total(self) -> int:
        return self.dim_base + self.dim_group

    # -- geometry and metric: the row kernels on one value ------------------

    def _row(self, kind: str, v) -> np.ndarray:
        """The rows of one value, without the batch axis: its angle or components."""
        if kind == "group":
            return np.float64(v.angle)
        return np.array(self._components(kind, v), dtype=float)

    def _one(self, kind: str, rows: np.ndarray):
        """The value whose rows, without the batch axis, these are."""
        return CircleElement(float(rows)) if kind == "group" else self._value(kind, rows.tolist())

    def project(self, q):
        """Base point under the bundle projection."""
        return self._one("base", self.project_rows(self._row("point", q)))

    def act(self, g: CircleElement, q):
        """Left action of the group element ``g`` on the total point ``q``."""
        return self._one("point", self.act_rows(self._row("group", g), self._row("point", q)))

    def fiber_translation(self, q0, q1) -> CircleElement:
        """Unique g with act(g, q0) = q1 for points on the same fiber.

        Raises NotSameFiber when the base points are further than
        ``FIBER_ATOL`` apart.
        """
        return self._one("group", self.fiber_rows(self._row("point", q0), self._row("point", q1)))

    def local_section(self, r):
        """Section value over the base point ``r``; SectionUndefined outside its chart."""
        section, defined = self.section_rows(self._row("base", r))
        if not defined:
            raise SectionUndefined(f"the section chart of {self.name} excludes {r}")
        return self._one("point", section)

    def section_defined(self, r) -> bool:
        """True when ``r`` lies in the local section's chart."""
        return bool(self.section_rows(self._row("base", r))[1])

    def distance(self, q0, q1) -> float:
        """Extrinsic distance between total points."""
        return float(self.distance_rows(self._row("point", q0), self._row("point", q1)))

    def base_distance(self, r0, r1) -> float:
        """Extrinsic distance between base points."""
        return float(self.base_distance_rows(self._row("base", r0), self._row("base", r1)))

    @abc.abstractmethod
    def embed_difference(self, q_plus, q_minus) -> np.ndarray:
        """Difference q_plus - q_minus in the ambient coordinates.

        Periodic coordinates are unwrapped so finite differences across
        them stay meaningful.
        """

    @abc.abstractmethod
    def base_direction_curves(self, q) -> Sequence[Callable[[float], object]]:
        """Curves c_i(eps) through q = c_i(0) moving in independent base directions.

        Used to parametrize horizontal slices as graphs over the base.
        """

    def group_inverse(self, a: CircleElement) -> CircleElement:
        """``a.inverse()``."""
        return a.inverse()

    def rows_of(self, kind: str, values: Sequence) -> np.ndarray:
        """Values of a kind, at least one, as rows: angles, or one row per component."""
        return np.array([self._row(kind, v) for v in values]).T.copy()

    def values_of(self, kind: str, rows: np.ndarray) -> list:
        """The values whose rows these are, bit for bit."""
        return [self._one(kind, c) for c in rows.T]

    # -- sampling ----------------------------------------------------------

    def draw_count(self, kind: str) -> int:
        """Draws one sampled "point" or "base" (``point_draws``) or "group" (1) reads."""
        return 1 if kind == "group" else self.point_draws

    def sample_rows(self, kinds: Sequence[str], block: np.ndarray,
                    box: float = DEFAULT_BOX) -> list[np.ndarray]:
        """Per kind, the rows of one value per row of an (n, k) block, reading the
        row's draws in order: a "point" reads ``point_draws`` (``box`` bounds flat
        base charts), a "base" projects such a point, a "group" is one uniform angle."""
        columns, start = [], 0
        for kind in kinds:
            end = start + self.draw_count(kind)
            if kind == "group":
                columns.append(canonical_rows(angles(block[:, start])))
            else:
                points = self._sample_points(block[:, start:end], box)
                columns.append(points if kind == "point" else self.project_rows(points))
            start = end
        return columns

    @abc.abstractmethod
    def _sample_points(self, block: np.ndarray, box: float) -> np.ndarray:
        """Rows of one random total point per row of an (n, ``point_draws``) block."""

    def sample_point(self, rng: SplitMix64, *, box: float = DEFAULT_BOX):
        """Random total point from the next draws of ``rng``: one row of :meth:`sample_rows`."""
        rows = self.sample_rows(("point",), rng.next_row(self.point_draws), box)[0]
        return self.values_of("point", rows)[0]

    def sample_group(self, rng: SplitMix64) -> CircleElement:
        return self.values_of("group", self.sample_rows(("group",), rng.next_row(1))[0])[0]

    # -- serialization (verification reports) ------------------------------

    @abc.abstractmethod
    def describe_point(self, q):
        """JSON-compatible description of a total point."""

    @abc.abstractmethod
    def restore_point(self, data):
        """Inverse of :meth:`describe_point`."""

    @abc.abstractmethod
    def describe_base(self, r):
        """JSON-compatible description of a base point."""

    @abc.abstractmethod
    def restore_base(self, data):
        """Inverse of :meth:`describe_base`."""


@dataclass(frozen=True)
class TrivialPoint:
    """Point (r, g) of a trivial bundle: flat base coordinates plus a group slot."""

    r: tuple[float, ...]
    g: CircleElement


def _base_components(w, x, y, z) -> tuple:
    """Components of conj(q) * (i * q) for q = w + x i + y j + z k."""
    return hamilton(w, -x, -y, -z, *hamilton(0.0, 1.0, 0.0, 0.0, w, x, y, z))


def _gap(aw, ax, ay, az, bw, bx, by, bz):
    """Euclidean norm of the rows of a - b, summed in the order of ``Quaternion.norm``."""
    dw, dx, dy, dz = aw - bw, ax - bx, ay - by, az - bz
    return np.sqrt(dw * dw + dx * dx + dy * dy + dz * dz)


def _square_sum(a, b):
    """Sum over the rows of (a_k - b_k) ** 2, added left to right from 0.0 (from
    Python 3.12 ``sum()`` compensates), each square Python's ``** 2`` on a float,
    which differs from d * d in the last bit on some inputs."""
    total = 0.0
    for x, y in zip(a, b):
        d = x - y
        total = total + np.array([v ** 2 for v in d.ravel().tolist()]).reshape(d.shape)
    return total


def _check_fiber(d: np.ndarray) -> None:
    """Raise NotSameFiber, naming the first, when base points are ``d`` > FIBER_ATOL apart."""
    over = np.extract(d > FIBER_ATOL, d)
    if over.size:
        raise NotSameFiber(f"base points are {over[0]:.3e} apart (allowed {FIBER_ATOL:.1e})")


def _counted(data, count: int, what: str):
    """A recorded Hopf ``what`` when it has ``count`` components, else ValueError."""
    if len(data) != count:
        raise ValueError(f"expected {count} {what} components, got {len(data)}")
    return data


def phase_components(q0, q1) -> tuple:
    """The 1 and i components of q1 * conj(q0), whose phase carries q0 to q1, from
    the components of q0 and q1 (floats or rows)."""
    w, x, y, z = q0
    return hamilton(*q1, w, -x, -y, -z)[:2]


_ATAN2 = np.frompyfunc(math.atan2, 2, 1)


def phase_rows(q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """Phase of q1 * conj(q0) on point rows, with ``math.atan2`` mapped: the
    fiber translation, and the closed-form connection."""
    w, x = phase_components(q0, q1)
    return canonical_rows(np.asarray(_ATAN2(x, w), dtype=float))


@dataclass(frozen=True, eq=False)
class HopfBundle(PrincipalBundle):
    """Unit quaternions fibered over unit imaginary quaternions.

    The projection conjugates the first imaginary basis element,
    project(q) = conj(q) * i * q, and the circle acts by left
    multiplication with cos(t) + sin(t) i.  Total points are
    UnitQuaternion, base points are imaginary unit Quaternion values.  The
    kernels compute through ``hamilton``, in the float order of those terms.
    """

    dim_base = 2
    name = "hopf"
    point_draws = 4

    def __eq__(self, other):
        return isinstance(other, HopfBundle)

    def __hash__(self):
        return hash("hopf")

    def project_rows(self, q: np.ndarray) -> np.ndarray:
        return np.array(_base_components(*q))

    def act_rows(self, g: np.ndarray, q: np.ndarray) -> np.ndarray:
        return unit_rows(*hamilton(np.cos(g), np.sin(g), 0.0, 0.0, *q))

    def fiber_rows(self, q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
        _check_fiber(_gap(*_base_components(*q0), *_base_components(*q1)))
        return phase_rows(q0, q1)

    def section_rows(self, r: np.ndarray) -> tuple:
        # the chart excludes the base point -i
        defined = _gap(*r, 0.0, -1.0, 0.0, 0.0) > SECTION_CHART_ATOL
        w, x, y, z = hamilton(0.0, 1.0, 0.0, 0.0, *r[..., defined])
        s = np.array([-1.0 + w, 0.0 + x, 0.0 + y, 0.0 + z])
        out = np.full(r.shape, np.nan)
        out[..., defined] = unit_rows(*s / np.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2]
                                                 + s[3] * s[3]))
        return out, defined

    def distance_rows(self, q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
        return _gap(*q0, *q1)

    def base_distance_rows(self, r0: np.ndarray, r1: np.ndarray) -> np.ndarray:
        return _gap(*r0, *r1)

    def embed_difference(self, q_plus, q_minus) -> np.ndarray:
        return np.array(q_plus.components()) - np.array(q_minus.components())

    def base_direction_curves(self, q: UnitQuaternion):
        # j*q and k*q span the directions transverse to the fiber through q
        dirs = (Quaternion(0.0, 0.0, 1.0, 0.0) * q, Quaternion(0.0, 0.0, 0.0, 1.0) * q)

        def curve(d: Quaternion) -> Callable[[float], UnitQuaternion]:
            return lambda eps: UnitQuaternion.from_quaternion((q + eps * d).normalized())

        return [curve(d) for d in dirs]

    def _sample_points(self, block: np.ndarray, box: float) -> np.ndarray:
        # Box-Muller on draw pairs (0, 1) and (2, 3), normalized; math.log,
        # since numpy's log differs from it in the last bit on some inputs
        u1 = uniforms(block[:, 0::2], 1)
        r = np.sqrt(-2.0 * np.array(list(map(math.log, u1.ravel().tolist()))).reshape(u1.shape))
        a = math.tau * uniforms(block[:, 1::2])
        (w, y), (x, z) = (r * np.cos(a)).T, (r * np.sin(a)).T
        n = np.sqrt(w * w + x * x + y * y + z * z)
        return unit_rows(w / n, x / n, y / n, z / n)

    def _components(self, kind: str, v) -> tuple:
        return v.components()

    def _value(self, kind: str, c: list):
        return UnitQuaternion.restored(*c) if kind == "point" else Quaternion(*c)

    def describe_point(self, q: UnitQuaternion):
        return list(q.components())

    def restore_point(self, data) -> UnitQuaternion:
        return UnitQuaternion.restored(*_counted(data, 4, "point"))

    def describe_base(self, r: Quaternion):
        return [r.x, r.y, r.z]

    def restore_base(self, data) -> Quaternion:
        return Quaternion(0.0, *_counted(data, 3, "base"))


@dataclass(frozen=True)
class TrivialBundle(PrincipalBundle):
    """Product bundle R^dim x U(1) with the identity chart on the base."""

    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidConfig(f"base dimension must be at least 1, got {self.dim}")

    @property
    def dim_base(self) -> int:
        return self.dim

    @property
    def name(self) -> str:
        return f"trivial-r{self.dim}"

    def point(self, r, g=CIRCLE_IDENTITY) -> TrivialPoint:
        """Build a total point from base coordinates and a group slot.

        ``r`` may be a scalar (when dim == 1) or an iterable of floats;
        ``g`` may be a CircleElement or a raw angle.
        """
        if not isinstance(g, CircleElement):
            g = CircleElement(float(g))
        return TrivialPoint(self._coords(r), g)

    def _coords(self, r) -> tuple[float, ...]:
        """Base coordinates as floats, ``dim`` of them, from a scalar or an iterable."""
        coords = (float(r),) if isinstance(r, (int, float)) else tuple(map(float, r))
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} base coordinates, got {len(coords)}")
        return coords

    def project_rows(self, q: np.ndarray) -> np.ndarray:
        return q[:-1]

    def act_rows(self, g: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.concatenate([q[:-1], canonical_rows(g + q[-1])[None]])

    def fiber_rows(self, q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
        _check_fiber(self.base_distance_rows(q0[:-1], q1[:-1]))
        # q1.g * q0.g.inverse(), building only the result
        return canonical_rows(q1[-1] + canonical_rows(-q0[-1]))

    def section_rows(self, r: np.ndarray) -> tuple:
        return np.concatenate([r, np.zeros((1, *r.shape[1:]))]), np.ones(r.shape[1:], dtype=bool)

    def distance_rows(self, q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
        dg = canonical_rows(q0[-1] - q1[-1])
        return np.sqrt(_square_sum(q0[:-1], q1[:-1]) + dg * dg)

    def base_distance_rows(self, r0: np.ndarray, r1: np.ndarray) -> np.ndarray:
        return np.sqrt(_square_sum(r0, r1))

    def embed_difference(self, q_plus: TrivialPoint, q_minus: TrivialPoint) -> np.ndarray:
        return np.array([*(a - b for a, b in zip(q_plus.r, q_minus.r)),
                         canonical_angle(q_plus.g.angle - q_minus.g.angle)])

    def base_direction_curves(self, q: TrivialPoint):
        def curve(i: int) -> Callable[[float], TrivialPoint]:
            def c(eps: float) -> TrivialPoint:
                coords = list(q.r)
                coords[i] += eps
                return TrivialPoint(tuple(coords), q.g)
            return c

        return [curve(i) for i in range(self.dim)]

    @property
    def point_draws(self) -> int:
        return self.dim + 1

    def _sample_points(self, block: np.ndarray, box: float) -> np.ndarray:
        # uniform in [-box, box) as uniform_in(-box, box) makes them: hi - lo is 2 box
        coords = -box + 2.0 * box * uniforms(block[:, :self.dim])
        return np.vstack([coords.T, canonical_rows(angles(block[:, self.dim]))])

    def _components(self, kind: str, v) -> tuple:
        return (*v.r, v.g.angle) if kind == "point" else self._coords(v)

    def _value(self, kind: str, c: list):
        return TrivialPoint(tuple(c[:-1]), CircleElement(c[-1])) if kind == "point" else tuple(c)

    def describe_point(self, q: TrivialPoint):
        return {"r": list(q.r), "angle": q.g.angle}

    def restore_point(self, data) -> TrivialPoint:
        return TrivialPoint(self._coords(data["r"]), CircleElement(data["angle"]))

    def describe_base(self, r):
        return list(r)

    def restore_base(self, data):
        return self._coords(data)

