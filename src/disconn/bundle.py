"""Principal bundles with circle structure group.

The abstract contract covers projection, group action, fiber translation
and a local section, plus the metric, sampling and serialization helpers
that the probes and the verification harness use; the two shipped
geometries are trivial bundles R^n x U(1) over R^n and the
unit-quaternion bundle over the 2-sphere of unit imaginary quaternions.

Distances on spheres are measured extrinsically (Euclidean in the ambient
coordinates); every tolerance in this package refers to that metric.
Bundle objects are immutable descriptors and all operations are pure.
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
    circle_distance,
    hamilton,
    unit_components,
)
from .errors import InvalidConfig, NotSameFiber, SectionUndefined
from .rng import SplitMix64

#: two total points count as fiber mates when their base distance is below this
FIBER_ATOL = 1e-9
#: chart margin of the quaternion-bundle section around its excluded base point
SECTION_CHART_ATOL = 1e-6
#: default half-width of the box that flat base points are sampled in
DEFAULT_BOX = 2.0


class PrincipalBundle(abc.ABC):
    """Contract for a principal bundle with structure group U(1).

    Concrete geometries provide the projection, the left group action,
    the fiber-translation map and a local section, plus the metric,
    sampling and serialization helpers used by the probes and the
    verification harness, and state ``dim_base`` and ``name``.
    The group operations are exposed on the bundle so code written
    against this contract stays correct for non-abelian groups.
    """

    dim_base: int
    name: str
    dim_group = 1

    @property
    def dim_total(self) -> int:
        return self.dim_base + self.dim_group

    # -- geometry ---------------------------------------------------------

    @abc.abstractmethod
    def project(self, q):
        """Base point under the bundle projection."""

    @abc.abstractmethod
    def act(self, g: CircleElement, q):
        """Left action of the group element ``g`` on the total point ``q``."""

    @abc.abstractmethod
    def fiber_translation(self, q0, q1) -> CircleElement:
        """Unique g with act(g, q0) = q1 for points on the same fiber.

        Raises NotSameFiber when the base points are further than
        ``FIBER_ATOL`` apart.
        """

    @abc.abstractmethod
    def local_section(self, r):
        """Section value over the base point ``r``.

        Raises SectionUndefined outside the section's chart.
        """

    @abc.abstractmethod
    def section_defined(self, r) -> bool:
        """True when ``r`` lies in the local section's chart."""

    # -- metric ------------------------------------------------------------

    @abc.abstractmethod
    def distance(self, q0, q1) -> float:
        """Extrinsic distance between total points."""

    @abc.abstractmethod
    def base_distance(self, r0, r1) -> float:
        """Extrinsic distance between base points."""

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

    # -- group operations --------------------------------------------------

    def group_identity(self) -> CircleElement:
        return CIRCLE_IDENTITY

    def group_compose(self, a: CircleElement, b: CircleElement) -> CircleElement:
        return a * b

    def group_inverse(self, a: CircleElement) -> CircleElement:
        return a.inverse()

    def group_distance(self, a: CircleElement, b: CircleElement) -> float:
        return circle_distance(a, b)

    # -- sampling ----------------------------------------------------------

    @abc.abstractmethod
    def sample_point(self, rng: SplitMix64, *, box: float = DEFAULT_BOX):
        """Random total point (``box`` bounds flat base charts, unused on spheres)."""

    def sample_group(self, rng: SplitMix64) -> CircleElement:
        return CircleElement(rng.angle())

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


def _gap(aw, ax, ay, az, bw, bx, by, bz) -> float:
    """Euclidean norm of a - b, summed in the order of ``Quaternion.norm``."""
    dw, dx, dy, dz = aw - bw, ax - bx, ay - by, az - bz
    return math.sqrt(dw * dw + dx * dx + dy * dy + dz * dz)


def _check_fiber(d: float) -> None:
    """Raise NotSameFiber when two base points are ``d`` > FIBER_ATOL apart."""
    if d > FIBER_ATOL:
        raise NotSameFiber(f"base points are {d:.3e} apart (allowed {FIBER_ATOL:.1e})")


def phase_components(q0: Quaternion, q1: Quaternion) -> tuple:
    """The 1 and i components of q1 * conj(q0), whose phase carries q0 to q1."""
    return hamilton(q1.w, q1.x, q1.y, q1.z, q0.w, -q0.x, -q0.y, -q0.z)[:2]


def fiber_phase(q0: Quaternion, q1: Quaternion) -> CircleElement:
    """Phase of q1 * conj(q0): the fiber translation, and the closed-form connection."""
    w, x = phase_components(q0, q1)
    return CircleElement(math.atan2(x, w))


@dataclass(frozen=True, eq=False)
class HopfBundle(PrincipalBundle):
    """Unit quaternions fibered over unit imaginary quaternions.

    The projection conjugates the first imaginary basis element,
    project(q) = conj(q) * i * q, and the circle acts by left
    multiplication with cos(t) + sin(t) i.  Total points are
    UnitQuaternion, base points are imaginary unit Quaternion values.
    Each operation computes on components through ``hamilton``, in the float
    order of those expressions, and builds only its result.
    """

    dim_base = 2
    name = "hopf"

    def __eq__(self, other):
        return isinstance(other, HopfBundle)

    def __hash__(self):
        return hash("hopf")

    def project(self, q: UnitQuaternion) -> Quaternion:
        return Quaternion(*_base_components(q.w, q.x, q.y, q.z))

    def act(self, g: CircleElement, q: UnitQuaternion) -> UnitQuaternion:
        return UnitQuaternion(*hamilton(math.cos(g.angle), math.sin(g.angle), 0.0, 0.0,
                                        q.w, q.x, q.y, q.z))

    def fiber_translation(self, q0, q1) -> CircleElement:
        _check_fiber(_gap(*_base_components(q0.w, q0.x, q0.y, q0.z),
                          *_base_components(q1.w, q1.x, q1.y, q1.z)))
        return fiber_phase(q0, q1)

    def local_section(self, r: Quaternion) -> UnitQuaternion:
        if not self.section_defined(r):
            raise SectionUndefined("section chart excludes the base antipode of i")
        w, x, y, z = hamilton(0.0, 1.0, 0.0, 0.0, r.w, r.x, r.y, r.z)
        return UnitQuaternion(*unit_components(-1.0 + w, 0.0 + x, 0.0 + y, 0.0 + z))

    def section_defined(self, r: Quaternion) -> bool:
        # distance to the excluded base point -i
        return _gap(r.w, r.x, r.y, r.z, 0.0, -1.0, 0.0, 0.0) > SECTION_CHART_ATOL

    def distance(self, q0: Quaternion, q1: Quaternion) -> float:
        return _gap(q0.w, q0.x, q0.y, q0.z, q1.w, q1.x, q1.y, q1.z)

    def base_distance(self, r0: Quaternion, r1: Quaternion) -> float:
        return _gap(r0.w, r0.x, r0.y, r0.z, r1.w, r1.x, r1.y, r1.z)

    def embed_difference(self, q_plus, q_minus) -> np.ndarray:
        return np.array(q_plus.components()) - np.array(q_minus.components())

    def base_direction_curves(self, q: UnitQuaternion):
        # j*q and k*q span the directions transverse to the fiber through q
        dirs = (Quaternion(0.0, 0.0, 1.0, 0.0) * q, Quaternion(0.0, 0.0, 0.0, 1.0) * q)

        def curve(d: Quaternion) -> Callable[[float], UnitQuaternion]:
            return lambda eps: UnitQuaternion.from_quaternion((q + eps * d).normalized())

        return [curve(d) for d in dirs]

    def sample_point(self, rng: SplitMix64, *, box: float = DEFAULT_BOX) -> UnitQuaternion:
        w, x = rng.normal_pair()
        y, z = rng.normal_pair()
        return UnitQuaternion(*unit_components(w, x, y, z))

    def describe_point(self, q: UnitQuaternion):
        return list(q.components())

    def restore_point(self, data) -> UnitQuaternion:
        return UnitQuaternion.restored(*data)

    def describe_base(self, r: Quaternion):
        return [r.x, r.y, r.z]

    def restore_base(self, data) -> Quaternion:
        return Quaternion(0.0, *data)


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
        if isinstance(r, (int, float)):
            coords = (float(r),)
        else:
            coords = tuple(float(c) for c in r)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} base coordinates, got {len(coords)}")
        if not isinstance(g, CircleElement):
            g = CircleElement(float(g))
        return TrivialPoint(coords, g)

    def project(self, q: TrivialPoint) -> tuple[float, ...]:
        return q.r

    def act(self, g: CircleElement, q: TrivialPoint) -> TrivialPoint:
        return TrivialPoint(q.r, g * q.g)

    def fiber_translation(self, q0, q1) -> CircleElement:
        _check_fiber(self.base_distance(q0.r, q1.r))
        return q1.g * q0.g.inverse()

    def local_section(self, r) -> TrivialPoint:
        return self.point(r)

    def section_defined(self, r) -> bool:
        return True

    def distance(self, q0: TrivialPoint, q1: TrivialPoint) -> float:
        db2 = sum((a - b) ** 2 for a, b in zip(q0.r, q1.r))
        dg = canonical_angle(q0.g.angle - q1.g.angle)
        return math.sqrt(db2 + dg * dg)

    def base_distance(self, r0, r1) -> float:
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(r0, r1)))

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

    def sample_point(self, rng: SplitMix64, *, box: float = DEFAULT_BOX) -> TrivialPoint:
        coords = tuple(rng.uniform_in(-box, box) for _ in range(self.dim))
        return TrivialPoint(coords, CircleElement(rng.angle()))

    def describe_point(self, q: TrivialPoint):
        return {"r": list(q.r), "angle": q.g.angle}

    def restore_point(self, data) -> TrivialPoint:
        return TrivialPoint(tuple(data["r"]), CircleElement(data["angle"]))

    def describe_base(self, r):
        return list(r)

    def restore_base(self, data):
        return tuple(data)


@dataclass(frozen=True)
class FiberPair:
    """Pair of total points validated to lie on one fiber."""

    bundle: PrincipalBundle
    q0: object
    q1: object

    def __post_init__(self):
        _check_fiber(self.bundle.base_distance(self.bundle.project(self.q0),
                                               self.bundle.project(self.q1)))
