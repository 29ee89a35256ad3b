"""Quaternion and circle-group arithmetic.

Every value is an immutable dataclass and every operation is pure, so
instances can be shared between threads without synchronization.  All
scalars are 64-bit floats.

The Hamilton product has one kernel, :func:`hamilton`, on bare components:
scalars and the integrator's (4, n) NumPy rows share it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: construction drift below which unit quaternions renormalize silently
RENORMALIZE_LIMIT = 1e-6


def hamilton(aw, ax, ay, az, bw, bx, by, bz):
    """Components (w, x, y, z) of a * b, on floats or elementwise on arrays."""
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def unit_components(w: float, x: float, y: float, z: float) -> tuple:
    """Components divided by their norm, as ``Quaternion.normalized`` makes them."""
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0:
        raise ValueError("cannot normalize the zero quaternion")
    return w / n, x / n, y / n, z / n


def canonical_angle(theta: float) -> float:
    """Reduce an angle to the canonical interval (-pi, pi].

    The boundary -pi maps to +pi so the representative is unique.
    """
    a = math.remainder(theta, math.tau)
    if a <= -math.pi:
        a = math.pi
    return a


@dataclass(frozen=True)
class Quaternion:
    """Element w + x i + y j + z k of the quaternion algebra."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.w) and math.isfinite(self.x)
                and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"quaternion components must be finite, got {self}")

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*hamilton(self.w, self.x, self.y, self.z,
                                    other.w, other.x, other.y, other.z))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __rmul__(self, scalar: float) -> "Quaternion":
        return Quaternion(scalar * self.w, scalar * self.x,
                          scalar * self.y, scalar * self.z)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def dot(self, other: "Quaternion") -> float:
        return (self.w * other.w + self.x * other.x
                + self.y * other.y + self.z * other.z)

    def norm_squared(self) -> float:
        return self.dot(self)

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalized(self) -> "Quaternion":
        return Quaternion(*unit_components(self.w, self.x, self.y, self.z))

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)


class UnitQuaternion(Quaternion):
    """Point of the unit sphere in the quaternion algebra.

    Construction renormalizes silently when | ||q|| - 1 | < 1e-6 and
    rejects larger drift, so long integrations stay on the sphere without
    masking genuine bugs.
    """

    def __post_init__(self):
        super().__post_init__()
        n = self.norm()
        drift = abs(n - 1.0)
        if drift > RENORMALIZE_LIMIT:
            raise ValueError(f"norm {n} is too far from 1 to renormalize")
        if drift > 0.0:
            object.__setattr__(self, "w", self.w / n)
            object.__setattr__(self, "x", self.x / n)
            object.__setattr__(self, "y", self.y / n)
            object.__setattr__(self, "z", self.z / n)

    @classmethod
    def from_quaternion(cls, q: Quaternion) -> "UnitQuaternion":
        return cls(q.w, q.x, q.y, q.z)

    @classmethod
    def restored(cls, w: float, x: float, y: float, z: float) -> "UnitQuaternion":
        """The point with exactly these recorded components.

        Construction renormalizes any drift, and renormalizing a point that
        was normalized once already can move it by an ulp; a recorded point
        comes back bit for bit instead.  The drift checks of construction
        still apply.
        """
        point = cls(w, x, y, z)
        for name, value in zip("wxyz", (w, x, y, z)):
            object.__setattr__(point, name, float(value))
        return point


Q_ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
Q_I = Quaternion(0.0, 1.0, 0.0, 0.0)
Q_J = Quaternion(0.0, 0.0, 1.0, 0.0)
Q_K = Quaternion(0.0, 0.0, 0.0, 1.0)

_AXIS_FIELDS = {"1": "w", "i": "x", "j": "y", "k": "z"}


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a * b."""
    return a * b


def quat_conj(a: Quaternion) -> Quaternion:
    """Conjugate: the sign of the imaginary part is flipped."""
    return a.conj()


def quat_project(a: Quaternion, axis: str) -> float:
    """Coefficient of the basis element named by ``axis`` in {'1','i','j','k'}."""
    try:
        return getattr(a, _AXIS_FIELDS[axis])
    except KeyError:
        raise ValueError(f"axis must be one of '1', 'i', 'j', 'k', got {axis!r}") from None


@dataclass(frozen=True)
class CircleElement:
    """Element e^{i angle} of the circle group, angle canonical in (-pi, pi]."""

    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError("circle angle must be finite")
        object.__setattr__(self, "angle", canonical_angle(self.angle))

    def __mul__(self, other: "CircleElement") -> "CircleElement":
        return CircleElement(self.angle + other.angle)

    def inverse(self) -> "CircleElement":
        return CircleElement(-self.angle)


CIRCLE_IDENTITY = CircleElement(0.0)


def circle_mul(a: CircleElement, b: CircleElement) -> CircleElement:
    return a * b


def circle_inv(a: CircleElement) -> CircleElement:
    return a.inverse()


def circle_distance(a: CircleElement, b: CircleElement) -> float:
    """Magnitude of the angle separating two circle elements."""
    return abs(canonical_angle(a.angle - b.angle))
