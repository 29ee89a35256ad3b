"""Metric-based existence construction on the quaternion bundle.

The bundle of unit quaternions over the 2-sphere is a Riemannian
submersion for the round metrics, so minimizing base arcs have unique
horizontal lifts.  Translating the lift endpoint onto the second point of
a pair defines a discrete connection form; this module implements that
construction by explicit Runge-Kutta integration, the equivalent closed
form, and a known variant (geodesic in the total space, then project and
lift) that fails equivariance and serves as the counterexample.

The lift is integrated with the classical four-stage Runge-Kutta method
followed by a projection back to the sphere after every step (Hairer,
Lubich & Wanner, Geometric Numerical Integration, section IV.4).  Each
stage velocity has a closed form.  With P = conj(q) i q, r = Im(P)/|q|^2
and v the base velocity,

    h = q u,    u = (v x r) / (2 |q|^2).

The factor u is imaginary and orthogonal to r, so h is tangent to the
sphere through q and orthogonal to the vertical direction i q for every
nonzero q, and d(project)(q)[h] = conj(h) i q + conj(q) i h = 2 P x u
equals v - r <r, v>, which is v for base-tangent velocities.

A batch is stored component-major: n quaternions as a (4, n) array whose
rows are the w, x, y, z components, and n base vectors as (3, n).  Every
helper works elementwise on those contiguous component rows, so each
pair's result does not depend on how many pairs share the batch, and a
non-finite stage is caught once per step on the renormalized state.

Both integrated forms lift from q0 and translate onto q1 under one fiber
guard and one antipodal guard, a single pair as a batch of one; they
differ in the base velocity only: the minimizing base arc's, or the
variant's exact 2 B(g, g') along the projected total-space arc g, with B
symmetric and B(q, q) the base point of q.  All constructions are pure; forms built here are immutable
and safe for concurrent evaluation.

Measured, and pinned by the test suite: the geodesic form's phase does
not depend on the step count.  At 8 steps it agrees with
:func:`hopf_closed_form` within 1e-14 on 2,000 drawn pairs (largest gap
8.9e-16), while the endpoints stray up to about 1.4e-4 off the fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import CircleElement, Q_I, Quaternion, UnitQuaternion, hamilton
from .bundle import FIBER_ATOL, HopfBundle, fiber_phase, phase_components
from .connection import DiscreteConnectionForm
from .errors import AntipodalPoints, InvalidConfig, OutOfRange, SolveFailed

#: pairs whose fiber phase square sum falls below this are out of domain
DOMAIN_BUFFER = 1e-12
#: inner-product guard below which base points count as antipodal
ANTIPODAL_DOT_BUFFER = 1e-9
#: fiber tolerance applied when translating integrated endpoints
LIFT_FIBER_ATOL = 1e-3
#: default number of Runge-Kutta steps
DEFAULT_STEPS = 256

_HOPF = HopfBundle()


# ---------------------------------------------------------------------------
# tangent vectors and the continuous connection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentVector:
    """Displacement ``vec`` attached at ``base``; tangent for sphere bases."""

    base: object
    vec: Quaternion

    def __post_init__(self):
        if isinstance(self.base, Quaternion):
            inner = self.base.dot(self.vec)
            if abs(inner) > 1e-9:
                raise ValueError(f"vector is not tangent: <vec, base> = {inner:.3e}")


@dataclass(frozen=True)
class ConnectionSplit:
    """Vertical coordinate and the vertical/horizontal parts of a tangent vector."""

    xi: float
    vertical: TangentVector
    horizontal: TangentVector


def infinitesimal_generator(xi: float, q: UnitQuaternion) -> TangentVector:
    """Velocity xi * (i q) of the circle action through q."""
    return TangentVector(q, xi * (Q_I * q))


def continuous_connection_form(v: TangentVector) -> ConnectionSplit:
    """Vertical coordinate of a tangent vector at a total point, with its split.

    The vertical direction at q is i*q, of unit length for unit q, so the
    coordinate is the plain inner product and v decomposes as
    xi * (i q) + horizontal with the horizontal part orthogonal to i*q.
    """
    q = v.base
    vertical_dir = Q_I * q
    xi = v.vec.dot(vertical_dir)
    vertical = xi * vertical_dir
    horizontal = v.vec - vertical
    return ConnectionSplit(xi, TangentVector(q, vertical), TangentVector(q, horizontal))


# ---------------------------------------------------------------------------
# base geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicSegment:
    """Constant-speed minimizing arc on the base sphere over the unit interval."""

    start: Quaternion
    end: Quaternion
    evaluator: Callable[[float], Quaternion]
    velocity: Callable[[float], TangentVector]
    length: float


def base_geodesic(r0: Quaternion, r1: Quaternion) -> GeodesicSegment:
    """Great-circle arc between non-antipodal base points, unit-interval parametrized.

    The one-column view of :func:`_arc_rows`.  Arcs are invariant under
    rescaling the round metric, so lengths are reported in the plain round
    metric.
    """
    position, velocity, omega = _arc_rows(_columns([r0]), _columns([r1]))

    def evaluator(t: float) -> Quaternion:
        return Quaternion(*position(t)[:, 0].tolist())

    def tangent(t: float) -> TangentVector:
        return TangentVector(evaluator(t), Quaternion(*velocity(t)[:, 0].tolist()))

    return GeodesicSegment(r0, r1, evaluator, tangent, float(omega[0]))


# ---------------------------------------------------------------------------
# vectorized quaternion helpers (component-major: rows are the w, x, y, z
# components of (4, n) quaternions, or of (3, n) base vectors)
# ---------------------------------------------------------------------------

def _columns(points) -> np.ndarray:
    """Quaternions as the columns of a contiguous (4, n) array."""
    return np.array([q.components() for q in points],
                    dtype=float).reshape(-1, 4).T.copy()


def _qmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array(hamilton(*a, *b))


def _conj_rows(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[1:] *= -1.0
    return out


def _project_rows(q: np.ndarray, p: Optional[np.ndarray] = None) -> np.ndarray:
    """Column-wise symmetric bilinear B(q, p) with B(q, q) = Im(conj(q) i q).

    2 B(q, p) is the derivative of the projection at q along p.  Terms are
    grouped as (a b + b a) - (c d + d c), which is 2 (a b - c d) bit for
    bit when p is q.
    """
    p = q if p is None else p
    w, x, y, z = q
    pw, px, py, pz = p
    out = np.empty((3, q.shape[1]))
    out[0] = w * pw + x * px - y * py - z * pz
    out[1] = (x * py + y * px) - (w * pz + z * pw)
    out[2] = (w * py + y * pw) + (x * pz + z * px)
    return out


def _normalize_rows(q: np.ndarray) -> np.ndarray:
    return q / np.sqrt(np.add.reduce(q * q, axis=0))


# ---------------------------------------------------------------------------
# the horizontal integrator
# ---------------------------------------------------------------------------

def _stage_rows(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-column horizontal velocity h = q (v x r) / (2 |q|^2) over base velocity v.

    Written elementwise on the component rows, so every column is computed
    by the same operations whatever the batch size.  A zero q gives a
    non-finite h, which the integrator's guard reports.
    """
    w, x, y, z = q
    v0, v1, v2 = v
    ww, xx, yy, zz = q * q
    norm2 = ww + xx + yy + zz
    r0 = (ww + xx - yy - zz) / norm2
    r1 = 2.0 * (x * y - w * z) / norm2
    r2 = 2.0 * (w * y + x * z) / norm2
    half = 0.5 / norm2
    u0 = (v1 * r2 - v2 * r1) * half
    u1 = (v2 * r0 - v0 * r2) * half
    u2 = (v0 * r1 - v1 * r0) * half
    h = np.empty_like(q)
    h[0] = -(x * u0 + y * u1 + z * u2)
    h[1] = w * u0 + y * u2 - z * u1
    h[2] = w * u1 - x * u2 + z * u0
    h[3] = w * u2 + x * u1 - y * u0
    return h


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise InvalidConfig(f"steps must be at least 1, got {steps}")


def _integrate_rows(q0: np.ndarray, velocity_fn: Callable[[float], np.ndarray], steps: int):
    """Classical four-stage Runge-Kutta over the unit interval, one step per item.

    ``q0`` is a (4, n) batch and ``velocity_fn(t)`` returns the (3, n) base
    velocities at time t; the state is renormalized to the sphere after
    every step.  A non-finite stage velocity carries into the renormalized
    state, which is checked once per step.  Yields, after each step, its
    end time t, the state q at t and the step's first-stage velocity k1,
    taken where it started.  The public entries check ``steps``.
    """
    q = q0
    dt = 1.0 / steps
    v_t = velocity_fn(0.0)
    for n in range(steps):
        t = n * dt
        v_mid = velocity_fn(t + 0.5 * dt)
        v_next = velocity_fn((n + 1) * dt)
        k1 = _stage_rows(q, v_t)
        k2 = _stage_rows(q + (0.5 * dt) * k1, v_mid)
        k3 = _stage_rows(q + (0.5 * dt) * k2, v_mid)
        k4 = _stage_rows(q + dt * k3, v_next)
        q = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        q = _normalize_rows(q)
        if not np.isfinite(q).all():
            raise SolveFailed("non-finite stage velocity in the horizontal lift")
        yield (n + 1) * dt, q, k1
        v_t = v_next


def _arc_exists(dot):
    """True where points with inner product ``dot`` have a unique minimizing arc."""
    return dot > -1.0 + ANTIPODAL_DOT_BUFFER


def _arc_rows(a: np.ndarray, b: np.ndarray):
    """Position and velocity fields of the column-wise constant-speed arcs a to b.

    Returns the two fields and the arc lengths omega.  Nearly equal
    columns follow the chord; a column without a unique arc raises
    AntipodalPoints.
    """
    dot = np.clip(np.sum(a * b, axis=0), -1.0, 1.0)
    if not _arc_exists(dot).all():
        raise AntipodalPoints("no unique minimizing arc between antipodal points")
    omega = np.arccos(dot)
    sin_omega = np.sin(omega)
    small = sin_omega < 1e-9
    any_small = small.any()
    safe = np.where(small, 1.0, sin_omega)
    scale = np.where(small, 0.0, omega / safe)
    chord = b - a

    def position(t: float) -> np.ndarray:
        p = (np.sin((1.0 - t) * omega) / safe) * a + (np.sin(t * omega) / safe) * b
        if any_small:
            p[:, small] = (a + t * chord)[:, small]
        return p

    def velocity(t: float) -> np.ndarray:
        v = scale * (-np.cos((1.0 - t) * omega) * a + np.cos(t * omega) * b)
        if any_small:
            v[:, small] = chord[:, small]
        return v

    return position, velocity, omega


# ---------------------------------------------------------------------------
# single-path lifting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftResult:
    """Outcome of lifting one base arc: endpoint, path samples, step count."""

    endpoint: UnitQuaternion
    trajectory: list
    velocity_samples: list
    steps: int


def horizontal_lift_path(segment: GeodesicSegment, q0: UnitQuaternion,
                         steps: int) -> LiftResult:
    """Horizontal lift of the minimizing base arc of a segment, starting at q0.

    The base point of q0 must lie within ``FIBER_ATOL`` of the segment's
    start, else ValueError.  The result holds every state as (t, point)
    and each step's first-stage velocity; each velocity is horizontal by
    construction, which the trajectory invariants test.
    """
    if _HOPF.base_distance(_HOPF.project(q0), segment.start) > FIBER_ATOL:
        raise ValueError("q0 does not lie over the start of the base segment")
    _check_steps(steps)
    velocity = _arc_rows(_columns([segment.start]), _columns([segment.end]))[1]
    start = _columns([q0])
    states = [(0.0, start, None), *_integrate_rows(start, lambda t: velocity(t)[1:], steps)]
    trajectory = [(t, UnitQuaternion(*q[:, 0])) for t, q, _ in states]
    velocity_samples = [TangentVector(point, Quaternion(*k1[:, 0]))
                        for (_, point), (_, _, k1) in zip(trajectory, states[1:])]
    return LiftResult(trajectory[-1][1], trajectory, velocity_samples, steps)


# ---------------------------------------------------------------------------
# connection forms on the quaternion bundle
# ---------------------------------------------------------------------------

def _phase_square_sum(q0: UnitQuaternion, q1: UnitQuaternion) -> float:
    w, x = phase_components(q0, q1)
    return w * w + x * x


def _hopf_in_domain(q0, q1) -> bool:
    return _phase_square_sum(q0, q1) > DOMAIN_BUFFER


def hopf_closed_form() -> DiscreteConnectionForm:
    """Closed-form connection on the quaternion bundle: the fiber phase.

    The value at (q0, q1) is the phase of the complex part of
    q1 * conj(q0) (:func:`~disconn.bundle.fiber_phase`), defined whenever
    that part is nonzero.
    """
    return DiscreteConnectionForm(_HOPF, fiber_phase, _hopf_in_domain, "closed-form")


def _translate_endpoints(end: np.ndarray, q1: np.ndarray) -> list[CircleElement]:
    base_err = np.linalg.norm(_project_rows(end) - _project_rows(q1), axis=0)
    if np.any(base_err > LIFT_FIBER_ATOL):
        raise SolveFailed(
            f"integrated endpoint strayed {base_err.max():.3e} from the target fiber")
    u = _qmul_rows(q1, _conj_rows(end))
    return [CircleElement(math.atan2(x, w)) for w, x in zip(*u[:2].tolist())]


def _integrated_form(steps: int, base_velocity: Callable, in_domain: Callable,
                     provenance: str) -> DiscreteConnectionForm:
    """Form that lifts a base path from q0 and translates the endpoint onto q1.

    ``base_velocity(q0, q1)`` returns the velocity field of the base paths
    of a (4, n) batch.  ``in_domain`` is where the path's arc exists, so a
    pair outside it raises AntipodalPoints.
    """
    _check_steps(steps)

    def ev_many(pairs) -> list[CircleElement]:
        q0 = _columns(p[0] for p in pairs)
        q1 = _columns(p[1] for p in pairs)
        for _, end, _ in _integrate_rows(q0, base_velocity(q0, q1), steps):
            pass  # keep only the last state
        return _translate_endpoints(end, q1)

    return DiscreteConnectionForm(_HOPF, None, in_domain, provenance,
                                  evaluate_many_fn=ev_many,
                                  out_of_domain_error=AntipodalPoints)


def _base_arc_velocity(q0: np.ndarray, q1: np.ndarray) -> Callable:
    return _arc_rows(_project_rows(q0), _project_rows(q1))[1]


def _base_arc_in_domain(q0: UnitQuaternion, q1: UnitQuaternion) -> bool:
    # the base points of q0 and q1 have inner product 2 s - 1
    return _arc_exists(2.0 * _phase_square_sum(q0, q1) - 1.0)


def riemannian_form(steps: int = DEFAULT_STEPS) -> DiscreteConnectionForm:
    """Connection built by lifting base arcs and translating endpoints.

    evaluate(q0, q1) lifts the minimizing base arc between the projections
    of q0 and q1, starting at q0, with ``steps`` Runge-Kutta steps, then
    translates the endpoint onto q1.  The domain is the pairs whose base
    points have a unique minimizing arc, s > 5e-10 for s = u.w^2 + u.x^2,
    u = q1 q0^{-1}.  Raises InvalidConfig when ``steps`` is below one.
    """
    return _integrated_form(steps, _base_arc_velocity, _base_arc_in_domain,
                            "geodesic-built")


def _lmw_in_domain(q0: UnitQuaternion, q1: UnitQuaternion) -> bool:
    return _arc_exists(q0.dot(q1))


def _projected_arc_velocity(q0: np.ndarray, q1: np.ndarray) -> Callable:
    position, velocity, _ = _arc_rows(q0, q1)
    return lambda t: 2.0 * _project_rows(position(t), velocity(t))


def lmw_form(steps: int = DEFAULT_STEPS) -> DiscreteConnectionForm:
    """Variant construction: total-space arc, projected, then lifted.

    For a pair (q0, q1) the minimizing arc gamma from q0 to q1 in the
    total sphere is projected to the base (in general not a geodesic
    there), the projected path is lifted horizontally from q0 using its
    exact velocity 2 B(gamma, gamma'), the derivative of the projection
    along the arc, and the endpoint is translated onto q1.  The result
    intentionally fails equivariance; its provenance ``lmw-variant`` flags
    it as a non-connection.  Raises InvalidConfig when ``steps`` < 1.
    """
    return _integrated_form(steps, _projected_arc_velocity, _lmw_in_domain,
                            "lmw-variant")


def beta_formula(theta: float) -> float:
    """Closed-form phase of the variant construction along the witness family.

    Defined for theta in the open interval (-pi/4, pi/4); its derivative
    at zero is arccos(1/sqrt(2)) = pi/4, against the equivariant
    prediction of slope one.
    """
    if not (-math.pi / 4.0 < theta < math.pi / 4.0):
        raise OutOfRange("theta must lie in the open interval (-pi/4, pi/4)")
    c = math.cos(theta)
    return math.sin(theta) * math.acos(c / math.sqrt(2.0)) / math.sqrt(2.0 - c * c)
