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
non-finite stage is caught once per step on the renormalized state.  One
column integrates on Python floats, a batch by buffered ufunc calls in the
same order of operations: float arithmetic, ``math.sqrt`` and ``np.sqrt``
all round correctly, so both carriers give a column the same bits.

Both integrated forms lift from q0 and translate onto q1 under one fiber
guard and one antipodal guard, a single pair as a batch of one and a wider
batch in chunks of at most ``FIELD_BLOCK`` pairs; they differ in the base
velocity only: the minimizing base arc's, or the variant's exact
2 B(g, g') along the projected total-space arc g, with B symmetric and
B(q, q) the base point of q.  All constructions are pure; forms built
here are immutable and safe for concurrent evaluation.

Integrated values reach the reports, so their bits must not depend on
the CPU.  Arc lengths come from ``math.acos`` and phases from
``math.atan2``; the NumPy functions whose results reach a report are
``sqrt``, ``sin`` and ``cos`` (also in the group action, which takes them
from NumPy on angle rows) and the exact ``fmod`` that reduces phases to
canonical angles, besides arithmetic.

The geodesic lift never leaves one horizontal plane, so the geodesic
form's phase does not depend on the step count.  With n the unit normal of
the base arc and omega its length, a stage state in P = q0 span(1, n) lies
over the arc's great circle, so v x r is parallel to n and the stage
velocity q u lies in P; RK4's combination and the renormalization keep P,
as Runge-Kutta methods keep linear invariants.  So every state is
q0 exp(-theta n / 2): the only error, theta_N - omega, moves the endpoint
along the track, which the phase of q1 conj(end) does not see.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import Quaternion, UnitQuaternion
from .bundle import FIBER_ATOL, HopfBundle, phase_components, phase_rows
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
# base geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicSegment:
    """Constant-speed minimizing arc on the base sphere over the unit interval."""

    start: Quaternion
    end: Quaternion
    evaluator: Callable[[float], Quaternion]
    velocity: Callable[[float], Quaternion]
    length: float


def base_geodesic(r0: Quaternion, r1: Quaternion) -> GeodesicSegment:
    """Great-circle arc between non-antipodal base points, unit-interval parametrized.

    The one-column view of :func:`_arc_rows`.  Arcs are invariant under
    rescaling the round metric, so lengths are reported in the plain round
    metric.
    """
    position, velocity, omega = _arc_rows(*(_HOPF.rows_of("base", [r]) for r in (r0, r1)))

    def evaluator(t: float) -> Quaternion:
        return Quaternion(*position(t)[:, 0].tolist())

    def tangent(t: float) -> Quaternion:
        return Quaternion(*velocity(t)[:, 0].tolist())

    return GeodesicSegment(r0, r1, evaluator, tangent, float(omega[0]))


# ---------------------------------------------------------------------------
# vectorized quaternion helpers (component-major: rows are the w, x, y, z
# components of (4, n) quaternions, or of (3, n) base vectors)
# ---------------------------------------------------------------------------

def _project_rows(q: np.ndarray, p: Optional[np.ndarray] = None) -> np.ndarray:
    """Column-wise symmetric bilinear B(q, p) with B(q, q) = Im(conj(q) i q).

    2 B(q, p) is the derivative of the projection at q along p, on rows
    with an optional leading time axis.  Terms are grouped as (a b + b a) -
    (c d + d c), which is 2 (a b - c d) bit for bit when p is q.
    """
    p = q if p is None else p
    w, x, y, z = np.moveaxis(q, -2, 0)
    pw, px, py, pz = np.moveaxis(p, -2, 0)
    return np.stack([w * pw + x * px - y * py - z * pz,
                     (x * py + y * px) - (w * pz + z * pw),
                     (w * py + y * pw) + (x * pz + z * px)], axis=-2)


# ---------------------------------------------------------------------------
# the horizontal integrator
# ---------------------------------------------------------------------------

def _stage_rows(q, v) -> list:
    """Per-column horizontal velocity h = q (v x r) / (2 |q|^2) over base velocity v.

    Written elementwise on the components of one column, as floats;
    :func:`_batch_kernels` runs the same operations on rows.  A zero q raises
    ZeroDivisionError, which the integrator reports.
    """
    w, x, y, z = q
    v0, v1, v2 = v
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    norm2 = ww + xx + yy + zz
    r0 = (ww + xx - yy - zz) / norm2
    r1 = 2.0 * (x * y - w * z) / norm2
    r2 = 2.0 * (w * y + x * z) / norm2
    half = 0.5 / norm2
    u0 = (v1 * r2 - v2 * r1) * half
    u1 = (v2 * r0 - v0 * r2) * half
    u2 = (v0 * r1 - v1 * r0) * half
    return [-(x * u0 + y * u1 + z * u2),
            w * u0 + y * u2 - z * u1,
            w * u1 - x * u2 + z * u0,
            w * u2 + x * u1 - y * u0]


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise InvalidConfig(f"steps must be at least 1, got {steps}")


#: base velocities (times x columns) per field call, so memory does not grow with steps
FIELD_BLOCK = 4096
_NON_FINITE = "non-finite stage velocity in the horizontal lift"


def _field_blocks(velocity_fn: Callable, steps: int, columns: int):
    """Velocity field at the stage times 0, dt/2, dt, ..., 1, a block of times per call."""
    dt, size, end = 1.0 / steps, max(1, FIELD_BLOCK // (columns or 1)), 2 * steps + 1
    for lo in range(0, end, size):
        # n dt and n dt + dt/2 as a step rounds them; NumPy's integer
        # division here would add about 0.2 MB of code to the resident set
        yield velocity_fn(np.array([i // 2 * dt + i % 2 * (0.5 * dt)
                                    for i in range(lo, min(lo + size, end))]))


def _axpy_floats(q: list, c: float, k: list) -> list:
    return [q[0] + c * k[0], q[1] + c * k[1], q[2] + c * k[2], q[3] + c * k[3]]


def _rk4_floats(q: list, dt: float, k1, k2, k3, k4) -> list:
    c = dt / 6.0
    w, x, y, z = [q[i] + c * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(4)]
    norm = math.sqrt(w * w + x * x + y * y + z * z)  # np.add.reduce's order
    q = [w / norm, x / norm, y / norm, z / norm]
    if not all(map(math.isfinite, q)):
        raise SolveFailed(_NON_FINITE)
    return q


def _batch_kernels(columns: int):
    """:func:`_stage_rows`, :func:`_axpy_floats` and :func:`_rk4_floats` on (4, n)
    rows: ufunc calls with ``out=`` into buffers and row views made once, in the
    float kernels' operations and grouping, so each column keeps their bits.
    The results of ``stage`` take turns in four buffers."""
    s, acc, sq, r, back = np.empty((5, 4, columns))  # s: the state of a stage
    k, p = np.empty((4, 4, columns)), np.empty((4, 3, columns))
    (t, norm2, half), u, cross = np.empty((3, 3, columns))
    (xy, wz), (wy, xz) = pair_a, pair_b = np.empty((2, 2, columns))
    (ww, xx, yy, zz), (r1, r2, r0, r1_copy), r12, r_lo, r_hi = sq, r, r[:2], r[:3], r[1:]
    (back0, _, _, back3), back_lo, back_hi = back, back[:3], back[1:]
    wx, xw, yz, column = s[:2], s[1::-1], s[2:], s[:, None]
    # u holds (u2, u0, u1), so p[i, j] = s_i u_(j - 1), which is row 3 i + j of flat
    (_, _, w_u1), (x_u2, x_u0, _), (_, _, y_u1), (z_u2, z_u0, _) = p
    flat = p.reshape(12, columns)
    w_u02, yx_u21, zy_u10 = flat[1::-1], flat[6:4:-1], flat[11:6:-4]
    outputs = itertools.cycle([(h, h[0], h[1::2], h[2]) for h in k])

    def stage(q, v):
        if q is not s:  # a step's first stage; axpy writes the others' state into s
            np.copyto(s, q)
        h, h0, h13, h2 = next(outputs)
        np.multiply(s, s, out=sq)
        np.add(np.add(np.add(ww, xx, out=t), yy, out=norm2), zz, out=norm2)
        np.subtract(np.subtract(t, yy, out=r0), zz, out=r0)
        np.multiply(xw, yz, out=pair_a)
        np.multiply(wx, yz, out=pair_b)
        np.subtract(xy, wz, out=r1)
        np.add(wy, xz, out=r2)
        np.multiply(r12, 2.0, out=r12)
        np.divide(r_lo, norm2, out=r_lo)
        np.copyto(r1_copy, r1)
        np.divide(0.5, norm2, out=half)
        np.multiply(v, r_lo, out=cross)  # v0 r1, v1 r2, v2 r0
        np.multiply(v, r_hi, out=back_lo)  # v0 r2, v1 r0, v2 r1
        np.copyto(back3, back0)  # back_hi: v1 r0, v2 r1, v0 r2, in step with cross
        np.multiply(np.subtract(cross, back_hi, out=u), half, out=u)
        np.multiply(column, u, out=p)
        np.negative(np.add(np.add(x_u0, y_u1, out=h0), z_u2, out=h0), out=h0)
        np.subtract(np.add(w_u02, yx_u21, out=h13), zy_u10, out=h13)  # rows 1 and 3
        np.add(np.subtract(w_u1, x_u2, out=h2), z_u0, out=h2)
        return h

    def axpy(q, c, k):
        return np.add(q, np.multiply(k, c, out=s), out=s)

    def rk4(q, dt, k1, k2, k3, k4):
        np.multiply(k2, 2.0, out=s)
        np.multiply(k3, 2.0, out=acc)
        np.add(np.add(np.add(k1, s, out=s), acc, out=s), k4, out=s)
        q = q + np.multiply(s, dt / 6.0, out=s)
        q /= np.sqrt(np.add.reduce(q * q, axis=0))
        if not np.isfinite(q).all():
            raise SolveFailed(_NON_FINITE)
        return q

    return stage, axpy, rk4


def _integrate_rows(q0: np.ndarray, velocity_fn: Callable, steps: int):
    """Classical four-stage Runge-Kutta over the unit interval, one step per item.

    ``q0`` is a (4, n) batch and ``velocity_fn(t)`` returns the (len(t), 3, n)
    base velocities at a 1-d array of times t.  One column runs on floats, a
    batch as the buffered ufunc calls of :func:`_batch_kernels`, in the same
    order of operations.  Each step renormalizes the state to the sphere and
    checks it finite, which catches a non-finite stage, then yields its end
    time t, the state q at t and its first-stage velocity k1, taken where it
    started: new (4, n) arrays, or for one column lists of four floats.  The
    public entries check ``steps``.
    """
    dt = 1.0 / steps
    blocks = _field_blocks(velocity_fn, steps, q0.shape[1])
    if q0.shape[1] == 1:
        q, stage, axpy, rk4 = q0[:, 0].tolist(), _stage_rows, _axpy_floats, _rk4_floats
        values = (v for block in blocks for v in block[:, :, 0].tolist())
    else:
        stage, axpy, rk4 = _batch_kernels(q0.shape[1])
        q, values = q0, (v for block in blocks for v in block)
    v_next = next(values)
    for n in range(steps):
        v_t, v_mid, v_next = v_next, next(values), next(values)
        try:
            k1 = stage(q, v_t)
            k2 = stage(axpy(q, 0.5 * dt, k1), v_mid)
            k3 = stage(axpy(q, 0.5 * dt, k2), v_mid)
            k4 = stage(axpy(q, dt, k3), v_next)
            q = rk4(q, dt, k1, k2, k3, k4)
        except ZeroDivisionError:  # floats raise where rows carry inf
            raise SolveFailed(_NON_FINITE) from None
        yield (n + 1) * dt, q, k1.copy()  # a batch's stages write into buffers


def _arc_exists(dot):
    """True where points with inner product ``dot`` have a unique minimizing arc."""
    return dot > -1.0 + ANTIPODAL_DOT_BUFFER


def _arc_rows(a: np.ndarray, b: np.ndarray):
    """Position and velocity fields of the column-wise constant-speed arcs a to b.

    Returns the two fields, of a time or of a 1-d array of times as a
    leading axis, and the arc lengths omega.  Nearly equal columns follow
    the chord; a column without a unique arc raises AntipodalPoints.
    """
    dot = np.clip(np.sum(a * b, axis=0), -1.0, 1.0)
    if not _arc_exists(dot).all():
        raise AntipodalPoints("no unique minimizing arc between antipodal points")
    # math.acos: numpy's arccos differs from it in the last bit on some inputs,
    # depending on the CPU's SIMD kernels; one call per column, not per step
    omega = np.array(list(map(math.acos, dot.tolist())))
    sin_omega = np.sin(omega)
    small = sin_omega < 1e-9
    any_small = small.any()
    safe = np.where(small, 1.0, sin_omega)
    scale = np.where(small, 0.0, omega / safe)
    chord = b - a

    def position(t) -> np.ndarray:
        t = np.asarray(t)[..., None, None]
        p = (np.sin((1.0 - t) * omega) / safe) * a + (np.sin(t * omega) / safe) * b
        if any_small:
            p[..., small] = (a + t * chord)[..., small]
        return p

    def velocity(t) -> np.ndarray:
        t = np.asarray(t)[..., None, None]
        v = scale * (-np.cos((1.0 - t) * omega) * a + np.cos(t * omega) * b)
        if any_small:
            v[..., small] = chord[:, small]
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
    steps: int


def horizontal_lift_path(segment: GeodesicSegment, q0: UnitQuaternion,
                         steps: int) -> LiftResult:
    """Horizontal lift of the minimizing base arc of a segment, starting at q0.

    The base point of q0 must lie within ``FIBER_ATOL`` of the segment's
    start, else ValueError.  The result holds every state as (t, point).
    """
    if _HOPF.base_distance(_HOPF.project(q0), segment.start) > FIBER_ATOL:
        raise ValueError("q0 does not lie over the start of the base segment")
    _check_steps(steps)
    ends = (_HOPF.rows_of("base", [r]) for r in (segment.start, segment.end))
    velocity = _arc_rows(*ends)[1]
    start = _HOPF.rows_of("point", [q0])
    states = [(0.0, start[:, 0], None),
              *_integrate_rows(start, lambda t: velocity(t)[:, 1:], steps)]
    trajectory = [(t, UnitQuaternion(*q)) for t, q, _ in states]
    return LiftResult(trajectory[-1][1], trajectory, steps)


# ---------------------------------------------------------------------------
# connection forms on the quaternion bundle
# ---------------------------------------------------------------------------

def _phase_square_sum(q0, q1):
    """|(q1 conj(q0))_(1, i)|^2 from the components of q0 and q1, floats or rows."""
    w, x = phase_components(q0, q1)
    return w * w + x * x


def _hopf_in_domain(q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    return _phase_square_sum(q0, q1) > DOMAIN_BUFFER


def hopf_closed_form() -> DiscreteConnectionForm:
    """Closed-form connection on the quaternion bundle: the fiber phase.

    The value at (q0, q1) is the phase of the complex part of
    q1 * conj(q0) (:func:`~disconn.bundle.phase_rows`), defined whenever
    that part is nonzero.
    """
    return DiscreteConnectionForm(_HOPF, "closed-form", _hopf_in_domain, phase_rows)


def _integrated_form(steps: int, base_velocity: Callable, in_domain: Callable,
                     provenance: str) -> DiscreteConnectionForm:
    """Form that lifts a base path from q0 and translates the endpoint onto q1.

    ``base_velocity(q0, q1)`` returns the velocity field of the base paths
    of a (4, n) batch; one pair integrates as a batch of one, and a wider
    batch in chunks of ``FIELD_BLOCK`` pairs under one fiber guard.
    ``in_domain`` is the row mask of pairs whose path's arc exists, so a
    pair outside it raises AntipodalPoints.
    """
    _check_steps(steps)

    def ev_many(q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
        if q0.ndim == 1:
            return ev_many(q0[:, None], q1[:, None])[0]
        end = np.empty(q0.shape)
        for lo in range(0, q0.shape[1], FIELD_BLOCK):
            a, b = q0[:, lo:lo + FIELD_BLOCK], q1[:, lo:lo + FIELD_BLOCK]
            for _, last, _ in _integrate_rows(a, base_velocity(a, b), steps):
                pass  # keep only the last state
            end[:, lo:lo + FIELD_BLOCK] = np.reshape(last, a.shape)
        base_err = _HOPF.base_distance_rows(_project_rows(end), _project_rows(q1))
        if np.any(base_err > LIFT_FIBER_ATOL):
            raise SolveFailed(
                f"integrated endpoint strayed {base_err.max():.3e} from the target fiber")
        return phase_rows(end, q1)

    return DiscreteConnectionForm(_HOPF, provenance, in_domain, ev_many,
                                  out_of_domain_error=AntipodalPoints)


def _base_arc_velocity(q0: np.ndarray, q1: np.ndarray) -> Callable:
    return _arc_rows(_project_rows(q0), _project_rows(q1))[1]


def _base_arc_in_domain(q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
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


def _lmw_in_domain(q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    # summed in the order of Quaternion.dot
    return _arc_exists(q0[0] * q1[0] + q0[1] * q1[1] + q0[2] * q1[2] + q0[3] * q1[3])


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
