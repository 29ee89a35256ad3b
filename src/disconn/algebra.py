"""Quaternion and circle-group arithmetic.

Every value is an immutable dataclass and every operation is pure, so
instances can be shared between threads without synchronization.  All
scalars are 64-bit floats.  Each value is validated and reduced once, at
construction: a circle angle is checked finite and made canonical, a unit
quaternion is checked finite and renormalized, and each field is set once.

The Hamilton product has one kernel, :func:`hamilton`, on bare components:
scalars and the integrator's (4, n) NumPy rows share it bit for bit.
Rows of many values are reduced as their constructors reduce one value:
:func:`canonical_rows` as ``CircleElement`` and :func:`unit_rows` as
``UnitQuaternion``, with the same errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: construction drift below which unit quaternions renormalize silently
RENORMALIZE_LIMIT = 1e-6


def hamilton(aw, ax, ay, az, bw, bx, by, bz):
    """Components (w, x, y, z) of a * b, on floats or elementwise on arrays."""
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def canonical_angle(theta: float) -> float:
    """Reduce an angle to the canonical interval (-pi, pi].

    The boundary -pi maps to +pi so the representative is unique.
    """
    a = math.remainder(theta, math.tau)
    if a <= -math.pi:
        a = math.pi
    return a


def canonical_rows(theta: np.ndarray) -> np.ndarray:
    """Circle angles, checked finite and reduced bit for bit as by :func:`canonical_angle`.

    ``np.fmod`` is exact, and so is the one +-tau correction, towards 0, that
    turns it into the remainder (Sterbenz), whichever CPU kernels NumPy
    dispatches.  One angle without the batch axis comes back as a NumPy scalar.
    """
    if not np.isfinite(theta).all():
        raise ValueError("circle angle must be finite")
    a = np.fmod(theta, math.tau)
    return np.where((a > math.pi) | (a <= -math.pi), a - np.copysign(math.tau, a), a)[()]


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
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)


class UnitQuaternion(Quaternion):
    """Point of the unit sphere in the quaternion algebra.

    Construction renormalizes silently when | ||q|| - 1 | < 1e-6 and
    rejects larger drift, so long integrations stay on the sphere without
    masking genuine bugs.
    """

    def __init__(self, w: float, x: float, y: float, z: float):
        if not (math.isfinite(w) and math.isfinite(x)
                and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("quaternion components must be finite, got "
                             f"{type(self).__qualname__}(w={w!r}, x={x!r}, y={y!r}, z={z!r})")
        n = math.sqrt(w * w + x * x + y * y + z * z)
        drift = abs(n - 1.0)
        if drift > RENORMALIZE_LIMIT:
            raise ValueError(f"norm {n} is too far from 1 to renormalize")
        if drift > 0.0:
            w, x, y, z = w / n, x / n, y / n, z / n
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

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


def unit_rows(w, x, y, z) -> np.ndarray:
    """Rows of the points ``UnitQuaternion`` builds from these component rows."""
    q = np.array([w, x, y, z], dtype=float)
    # w*w + x*x + y*y + z*z in that order: a reduction over axis 0 adds row by row
    n = np.sqrt(np.add.reduce(q * q, axis=0))
    drift = np.abs(n - 1.0)
    if not (drift <= RENORMALIZE_LIMIT).all():
        if not np.isfinite(q).all():
            raise ValueError("quaternion components must be finite")
        far = np.extract(~(drift <= RENORMALIZE_LIMIT), n)[0]
        raise ValueError(f"norm {far} is too far from 1 to renormalize")
    return np.where(drift > 0.0, q / n, q)


Q_ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
Q_I = Quaternion(0.0, 1.0, 0.0, 0.0)


@dataclass(frozen=True, init=False)
class CircleElement:
    """Element e^{i angle} of the circle group, angle canonical in (-pi, pi]."""

    angle: float

    def __init__(self, angle: float):
        if not math.isfinite(angle):
            raise ValueError("circle angle must be finite")
        object.__setattr__(self, "angle", canonical_angle(angle))

    def __mul__(self, other: "CircleElement") -> "CircleElement":
        return CircleElement(self.angle + other.angle)

    def inverse(self) -> "CircleElement":
        return CircleElement(-self.angle)


CIRCLE_IDENTITY = CircleElement(0.0)


def circle_distance(a: CircleElement, b: CircleElement) -> float:
    """Magnitude of the angle separating two circle elements."""
    return abs(canonical_angle(a.angle - b.angle))
