"""Principal bundles with circle structure group.

The abstract contract covers projection, group action, fiber translation
and a local section; the two shipped geometries are trivial bundles
R^n x U(1) over R^n and the unit-quaternion bundle over the 2-sphere of
unit imaginary quaternions.

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
    Q_I,
    Quaternion,
    UnitQuaternion,
    canonical_angle,
    circle_distance,
)
from .errors import InvalidConfig, NotSameFiber, SectionUndefined
from .rng import SplitMix64

#: two total points count as fiber mates when their base distance is below this
FIBER_ATOL = 1e-9
#: chart margin of the quaternion-bundle section around its excluded base point
SECTION_CHART_ATOL = 1e-6


class PrincipalBundle(abc.ABC):
    """Contract for a principal bundle with structure group U(1).

    Concrete geometries provide the projection, the left group action,
    the fiber-translation map and a local section, plus embedding and
    sampling helpers used by the probes and the verification harness.
    The group operations are exposed on the bundle so code written
    against this contract stays correct for non-abelian groups.
    """

    dim_total: int
    dim_base: int
    dim_group: int
    name: str

    # -- geometry ---------------------------------------------------------

    @abc.abstractmethod
    def project(self, q):
        """Base point under the bundle projection."""

    @abc.abstractmethod
    def act(self, g: CircleElement, q):
        """Left action of the group element ``g`` on the total point ``q``."""

    @abc.abstractmethod
    def fiber_translation(self, q0, q1, *, atol: float = FIBER_ATOL) -> CircleElement:
        """Unique g with act(g, q0) = q1 for points on the same fiber.

        Raises NotSameFiber when the base points are further than ``atol``
        apart.  Callers lifting by numerical integration pass a looser
        ``atol`` to absorb endpoint error.
        """

    @abc.abstractmethod
    def local_section(self, r):
        """Section value over the base point ``r``.

        Raises SectionUndefined outside the section's chart.
        """

    @abc.abstractmethod
    def section_defined(self, r) -> bool:
        """True when ``r`` lies in the local section's chart."""

    # -- metric and embedding ---------------------------------------------

    @abc.abstractmethod
    def distance(self, q0, q1) -> float:
        """Extrinsic distance between total points."""

    @abc.abstractmethod
    def base_distance(self, r0, r1) -> float:
        """Extrinsic distance between base points."""

    @abc.abstractmethod
    def embed(self, q) -> np.ndarray:
        """Coordinates of a total point in the ambient chart."""

    @abc.abstractmethod
    def embed_difference(self, q_plus, q_minus) -> np.ndarray:
        """Ambient difference embed(q_plus) - embed(q_minus).

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
    def sample_point(self, rng: SplitMix64, *, box: float = 2.0):
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


@dataclass(frozen=True, eq=False)
class HopfBundle(PrincipalBundle):
    """Unit quaternions fibered over unit imaginary quaternions.

    The projection conjugates the first imaginary basis element,
    project(q) = conj(q) * i * q, and the circle acts by left
    multiplication with cos(t) + sin(t) i.  Total points are
    UnitQuaternion, base points are imaginary unit Quaternion values.
    """

    dim_total: int = 3
    dim_base: int = 2
    dim_group: int = 1
    name: str = "hopf"

    def __eq__(self, other):
        return isinstance(other, HopfBundle)

    def __hash__(self):
        return hash("hopf")

    def project(self, q: UnitQuaternion) -> Quaternion:
        return q.conj() * (Q_I * q)

    def act(self, g: CircleElement, q: UnitQuaternion) -> UnitQuaternion:
        rot = Quaternion(math.cos(g.angle), math.sin(g.angle), 0.0, 0.0)
        return UnitQuaternion.from_quaternion(rot * q)

    def fiber_translation(self, q0, q1, *, atol: float = FIBER_ATOL) -> CircleElement:
        d = self.base_distance(self.project(q0), self.project(q1))
        if d > atol:
            raise NotSameFiber(f"base points are {d:.3e} apart (allowed {atol:.1e})")
        u = q1 * q0.conj()
        return CircleElement(math.atan2(u.x, u.w))

    def local_section(self, r: Quaternion) -> UnitQuaternion:
        if not self.section_defined(r):
            raise SectionUndefined("section chart excludes the base antipode of i")
        s = Quaternion(-1.0, 0.0, 0.0, 0.0) + Q_I * r
        return UnitQuaternion.from_quaternion(s.normalized())

    def section_defined(self, r: Quaternion) -> bool:
        south = Quaternion(0.0, -1.0, 0.0, 0.0)
        return self.base_distance(r, south) > SECTION_CHART_ATOL

    def distance(self, q0: Quaternion, q1: Quaternion) -> float:
        return (q0 - q1).norm()

    def base_distance(self, r0: Quaternion, r1: Quaternion) -> float:
        return (r0 - r1).norm()

    def embed(self, q: Quaternion) -> np.ndarray:
        return np.array(q.components())

    def embed_difference(self, q_plus, q_minus) -> np.ndarray:
        return self.embed(q_plus) - self.embed(q_minus)

    def base_direction_curves(self, q: UnitQuaternion):
        # j*q and k*q span the directions transverse to the fiber through q
        dirs = (Quaternion(0.0, 0.0, 1.0, 0.0) * q, Quaternion(0.0, 0.0, 0.0, 1.0) * q)

        def curve(d: Quaternion) -> Callable[[float], UnitQuaternion]:
            return lambda eps: UnitQuaternion.from_quaternion((q + eps * d).normalized())

        return [curve(d) for d in dirs]

    def sample_point(self, rng: SplitMix64, *, box: float = 2.0) -> UnitQuaternion:
        w, x = rng.normal_pair()
        y, z = rng.normal_pair()
        return UnitQuaternion.from_quaternion(Quaternion(w, x, y, z).normalized())

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
    def dim_total(self) -> int:
        return self.dim + 1

    @property
    def dim_base(self) -> int:
        return self.dim

    @property
    def dim_group(self) -> int:
        return 1

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

    def base_point(self, r) -> tuple[float, ...]:
        if isinstance(r, (int, float)):
            return (float(r),)
        return tuple(float(c) for c in r)

    def project(self, q: TrivialPoint) -> tuple[float, ...]:
        return q.r

    def act(self, g: CircleElement, q: TrivialPoint) -> TrivialPoint:
        return TrivialPoint(q.r, g * q.g)

    def fiber_translation(self, q0, q1, *, atol: float = FIBER_ATOL) -> CircleElement:
        d = self.base_distance(q0.r, q1.r)
        if d > atol:
            raise NotSameFiber(f"base points are {d:.3e} apart (allowed {atol:.1e})")
        return q1.g * q0.g.inverse()

    def local_section(self, r) -> TrivialPoint:
        return TrivialPoint(self.base_point(r), CIRCLE_IDENTITY)

    def section_defined(self, r) -> bool:
        return True

    def distance(self, q0: TrivialPoint, q1: TrivialPoint) -> float:
        db2 = sum((a - b) ** 2 for a, b in zip(q0.r, q1.r))
        dg = canonical_angle(q0.g.angle - q1.g.angle)
        return math.sqrt(db2 + dg * dg)

    def base_distance(self, r0, r1) -> float:
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(r0, r1)))

    def embed(self, q: TrivialPoint) -> np.ndarray:
        return np.array([*q.r, q.g.angle])

    def embed_difference(self, q_plus: TrivialPoint, q_minus: TrivialPoint) -> np.ndarray:
        out = self.embed(q_plus) - self.embed(q_minus)
        out[-1] = canonical_angle(q_plus.g.angle - q_minus.g.angle)
        return out

    def base_direction_curves(self, q: TrivialPoint):
        def curve(i: int) -> Callable[[float], TrivialPoint]:
            def c(eps: float) -> TrivialPoint:
                coords = list(q.r)
                coords[i] += eps
                return TrivialPoint(tuple(coords), q.g)
            return c

        return [curve(i) for i in range(self.dim)]

    def sample_point(self, rng: SplitMix64, *, box: float = 2.0) -> TrivialPoint:
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
        d = self.bundle.base_distance(self.bundle.project(self.q0),
                                      self.bundle.project(self.q1))
        if d > FIBER_ATOL:
            raise NotSameFiber(f"base points are {d:.3e} apart (allowed {FIBER_ATOL:.1e})")
