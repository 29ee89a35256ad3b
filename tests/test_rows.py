"""Rows bit for bit against the scalar arithmetic they replace.

The row functions of ``disconn.rng`` and the bundles' row builders are
compared with the scalar generator and with serial references written
here: the Box-Muller pair and the box-uniform coordinates that points
were first drawn with, one ``next_u64`` call at a time.  The row
canonical angle and the bundles' row kernels are compared with the
arithmetic of the value types, ``canonical_angle``, ``Quaternion``,
``UnitQuaternion`` and ``CircleElement``.  Floats are compared by
``repr``, so a zero of the wrong sign fails.
"""

import builtins
import math

import numpy as np
import pytest

from disconn.algebra import (Q_I, CircleElement, Quaternion, UnitQuaternion, canonical_angle,
                             canonical_rows, hamilton, unit_rows)
from disconn.bundle import (FIBER_ATOL, SECTION_CHART_ATOL, HopfBundle, TrivialBundle,
                            TrivialPoint)
from disconn.connection import (lift_from_form, make_c_function, trivial_form_from_C,
                                trivial_lift_from_C)
from disconn.errors import NotSameFiber, SectionUndefined
from disconn.riemannian import hopf_closed_form
from disconn.rng import (
    _GAMMA,
    _MASK,
    SplitMix64,
    _mix,
    draw_rows,
    substream,
    substream_states,
    uniforms,
)

N_STREAMS = 10_000
#: the point that stream substream(31, LOG_STREAM) opens with moves when its
#: two logs move up by one ulp
LOG_STREAM = 0


def bits(value):
    if isinstance(value, UnitQuaternion):
        return tuple(map(repr, value.components()))
    if isinstance(value, Quaternion):
        return ("base", *map(repr, value.components()))
    if isinstance(value, CircleElement):
        return ("group", repr(value.angle))
    if isinstance(value, tuple):
        return ("base", *map(repr, value))
    return (tuple(map(repr, value.r)), repr(value.g.angle))


def serial_uniform(rng, low=0):
    return ((rng.next_u64() >> 11) + low) * (1.0 / (1 << 53))


def serial_angle(rng):
    return -math.pi + math.tau * serial_uniform(rng, 1)


def serial_normal_pair(rng):
    """Box-Muller from two draws, as the stream's own method computed it."""
    u1 = serial_uniform(rng, 1)
    u2 = serial_uniform(rng)
    r = math.sqrt(-2.0 * math.log(u1))
    a = math.tau * u2
    return r * math.cos(a), r * math.sin(a)


def serial_point(bundle, rng, box):
    if isinstance(bundle, HopfBundle):
        w, x = serial_normal_pair(rng)
        y, z = serial_normal_pair(rng)
        return UnitQuaternion.from_quaternion(Quaternion(w, x, y, z).normalized())
    coords = tuple(-box + (box - -box) * serial_uniform(rng) for _ in range(bundle.dim))
    return bundle.point(coords, CircleElement(serial_angle(rng)))


def serial_sample(bundle, rng, kinds, box):
    values = []
    for kind in kinds:
        if kind == "group":
            values.append(CircleElement(serial_angle(rng)))
        else:
            q = serial_point(bundle, rng, box)
            values.append(q if kind == "point" else bundle.project(q))
    return values


def test_row_mix_matches_mix():
    edges = [0, 1, _MASK, _MASK - 1, 1 << 63, (1 << 63) - 1]
    edges += [(k * _GAMMA) & _MASK for k in range(1, 200)]
    edges += [(-k * _GAMMA) & _MASK for k in range(1, 200)]
    rng = SplitMix64(2024)
    states = edges + [rng.next_u64() for _ in range(100_000 - len(edges))]
    rows = _mix(np.array(states, dtype=np.uint64)).tolist()
    assert rows == [_mix(z) for z in states]


@pytest.mark.parametrize("seed", [0, 5, -1, -(1 << 63), 1 << 63, _MASK, (1 << 64) + 3,
                                  (1 << 80) - 7])
@pytest.mark.parametrize("key", [0, 2, -1, -(1 << 40), _MASK, 1 << 64])
def test_row_states_match_substream(seed, key):
    indices = [*range(300), -1, -2, -(1 << 63), 1 << 63, _MASK, 1 << 64]
    states = substream_states(seed, key, indices).tolist()
    assert states == [substream(seed, key, i)._state for i in indices]
    # the seed may vary per row as well, as the slice probes address streams
    seeds = range(seed, seed + 50)
    assert substream_states(seeds, key).tolist() == [substream(s, key)._state for s in seeds]
    assert substream_states(seed).tolist() == [substream(seed)._state]


def test_draw_blocks_at_offsets_match_successive_calls():
    states = substream_states(17, 3, range(200))
    offsets = [0, 1, 2, 7, 1000, (1 << 40) + 3] * 33 + [5, 0]
    block = draw_rows(states, offsets, 9).tolist()
    for state, offset, row in zip(states.tolist(), offsets, block):
        # after k calls of next_u64 a stream's state has moved by k gammas
        rng = SplitMix64(state if offset < 2000 else (state + offset * _GAMMA) & _MASK)
        for _ in range(offset if offset < 2000 else 0):
            rng.next_u64()
        assert row == [rng.next_u64() for _ in range(9)]


def test_next_row_is_the_next_draws_and_advances_the_stream():
    rng, ref = substream(4, 4), substream(4, 4)
    assert rng.next_row(5).tolist() == [[ref.next_u64() for _ in range(5)]]
    assert rng.next_u64() == ref.next_u64()


def test_uniforms_match_the_stream():
    rng, ref = substream(8, 1), substream(8, 1)
    assert [rng.uniform() for _ in range(500)] == [serial_uniform(ref) for _ in range(500)]
    assert [rng.angle() for _ in range(500)] == [serial_angle(ref) for _ in range(500)]
    draws = [rng.next_u64() for _ in range(1000)] + [0, 1, _MASK]
    row = np.array(draws, dtype=np.uint64)
    assert uniforms(row).tolist() == [(d >> 11) * 2.0 ** -53 for d in draws]
    assert uniforms(row, 1).tolist() == [((d >> 11) + 1) * 2.0 ** -53 for d in draws]


@pytest.mark.parametrize("bundle", [HopfBundle(), TrivialBundle(1), TrivialBundle(3)],
                         ids=["hopf", "trivial-r1", "trivial-r3"])
def test_bundle_rows_match_the_serial_draws(bundle):
    kinds = ("point", "group", "base", "point")
    box = 1.75
    count = sum(map(bundle.draw_count, kinds))
    states = substream_states(29, bundle.dim_base, range(N_STREAMS))
    columns = bundle.sample_rows(kinds, draw_rows(states, [0] * N_STREAMS, count), box)
    rows = [tuple(map(bits, values)) for values in zip(
        *(bundle.values_of(kind, rows) for kind, rows in zip(kinds, columns)))]
    ref = [tuple(map(bits, serial_sample(bundle, substream(29, bundle.dim_base, i), kinds, box)))
           for i in range(N_STREAMS)]
    assert rows == ref
    # the one-row case: sample_point and sample_group read one stream in turn
    rng, ref_rng = substream(30, 1), substream(30, 1)
    for _ in range(200):
        assert bits(bundle.sample_point(rng, box=box)) == bits(serial_point(bundle, ref_rng, box))
        assert bits(bundle.sample_group(rng)) == bits(CircleElement(serial_angle(ref_rng)))
    # one block of a stream's draws, a row per point, as slice-probe reads its points
    block = substream(30, 2).next_row(100 * bundle.point_draws).reshape(100, -1)
    ref_rng = substream(30, 2)
    points = bundle.values_of("point", bundle.sample_rows(("point",), block, box)[0])
    assert list(map(bits, points)) == [
        bits(serial_point(bundle, ref_rng, box)) for _ in range(100)]


def test_hopf_rows_take_the_log_from_math(monkeypatch):
    hopf = HopfBundle()
    block = draw_rows(substream_states(31, [LOG_STREAM]), [0], 4)
    (point,) = hopf.values_of("point", hopf.sample_rows(("point",), block)[0])
    assert bits(point) == bits(serial_point(hopf, substream(31, LOG_STREAM), None))
    # mutation check, whatever numpy's own log gives on this CPU: the point's
    # bits follow each result of math.log
    log = math.log
    monkeypatch.setattr(math, "log", lambda u: math.nextafter(log(u), math.inf))
    (moved,) = hopf.values_of("point", hopf.sample_rows(("point",), block)[0])
    assert bits(moved) != bits(point)


# ---------------------------------------------------------------------------
# row kernels against the scalar arithmetic of the value types
# ---------------------------------------------------------------------------

def test_row_canonical_angle_matches_the_scalar_reduction():
    pi, tau = math.pi, math.tau
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
    for centre in [pi, -pi] + [k * pi for k in range(-4001, 4002, 2)] + [
            k * tau for k in range(-2000, 2001)] + [pi / 2, -pi / 2, tau / 2, -tau / 2]:
        up = down = centre
        for _ in range(4):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
            special += [up, down]
        special.append(centre)
    rng = np.random.default_rng(20261020)
    drawn = [rng.uniform(-4.0, 4.0, 300_000), rng.uniform(-2000 * tau, 2000 * tau, 300_000),
             rng.normal(0.0, 1e9, 200_000),
             rng.uniform(-1.0, 1.0, 150_000) * 10.0 ** rng.uniform(-320, 308, 150_000)]
    theta = np.concatenate([np.array(special), *drawn])
    assert theta.size >= 1_000_000
    new = canonical_rows(theta)
    ref = np.array([canonical_angle(t) for t in theta.tolist()])
    assert np.array_equal(new.view(np.int64), ref.view(np.int64))
    assert canonical_rows(np.array([-pi, -0.0])).tolist() == [pi, -0.0]
    # one angle, without the batch axis, as a public call on one value reduces it
    one = np.array([canonical_rows(np.float64(t)) for t in special])
    assert np.array_equal(one.view(np.int64), ref[:len(special)].view(np.int64))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^circle angle must be finite$"):
            canonical_rows(np.array([0.5, bad]))
        with pytest.raises(ValueError, match="^circle angle must be finite$"):
            canonical_rows(np.float64(bad))


def ref_trivial(bundle, name, *args):
    """The trivial bundle's operations on values, in the arithmetic of the
    value types: circle products, and squares d * d added left to right."""
    def square_sum(a, b):
        total = 0.0
        for x, y in zip(a, b):
            total += (x - y) * (x - y)
        return total

    if name == "project":
        return args[0].r
    if name == "act":
        g, q = args
        return TrivialPoint(q.r, g * q.g)
    if name == "fiber_translation":
        q0, q1 = args
        if math.sqrt(square_sum(q0.r, q1.r)) > FIBER_ATOL:
            raise NotSameFiber("reference")
        return q1.g * q0.g.inverse()
    if name == "local_section":
        return TrivialPoint(tuple(args[0]), CircleElement(0.0))
    if name == "distance":
        q0, q1 = args
        dg = canonical_angle(q0.g.angle - q1.g.angle)
        return math.sqrt(square_sum(q0.r, q1.r) + dg * dg)
    return math.sqrt(square_sum(*args))


def ref_hopf(bundle, name, *args):
    """The Hopf bundle's operations on values, composed from ``Quaternion``
    products, ``math`` functions and the ``UnitQuaternion`` constructor."""
    def project(q):
        return q.conj() * (Q_I * q)

    if name == "project":
        return project(args[0])
    if name == "act":
        g, q = args
        rot = Quaternion(math.cos(g.angle), math.sin(g.angle), 0.0, 0.0)
        return UnitQuaternion.from_quaternion(rot * q)
    if name == "fiber_translation":
        q0, q1 = args
        if (project(q0) - project(q1)).norm() > FIBER_ATOL:
            raise NotSameFiber("reference")
        u = q1 * q0.conj()
        return CircleElement(math.atan2(u.x, u.w))
    if name == "local_section":
        r = args[0]
        if not (r - Quaternion(0.0, -1.0, 0.0, 0.0)).norm() > SECTION_CHART_ATOL:
            raise SectionUndefined("reference")
        s = Quaternion(-1.0, 0.0, 0.0, 0.0) + Q_I * r
        return UnitQuaternion.from_quaternion(s.normalized())
    a, b = args
    return (a - b).norm()


def outcome(fn, *args):
    try:
        value = fn(*args)
    except (NotSameFiber, SectionUndefined) as exc:
        return type(exc).__name__
    return bits(value) if not isinstance(value, float) else repr(value)


def pow_square_sum(differences):
    """Squares of Python floats by ``** 2``, libm's ``pow``, added left to right."""
    total = 0.0
    for d in differences:
        total += d ** 2
    return total


def kernel_cases(bundle, n):
    """Blocks of drawn inputs per operation, with fiber mates for the fiber
    translation and, on the Hopf bundle, base points near the excluded -i
    and points off the sphere by up to 1e-7, whose images renormalize."""
    states = substream_states(77, bundle.dim_base, range(n))
    kinds = ("point", "point", "group", "base")
    count = sum(map(bundle.draw_count, kinds))
    q0, q1, g, r = bundle.sample_rows(kinds, draw_rows(states, [0] * n, count))
    mates = bundle.act_rows(g, q0)
    if isinstance(bundle, HopfBundle):
        # points near j project near -i, within 1e-5 of it and on both sides of 1e-6
        near = q1 + np.array([[0.0], [0.0], [1.0], [0.0]]) * 10.0 ** np.linspace(2, 7, n)
        near /= np.sqrt(np.sum(near * near, axis=0))
        r = np.concatenate([r, bundle.project_rows(near)], axis=1)
        q0 = np.concatenate([q0, q0 * (1.0 + 1e-7 * np.linspace(-1.0, 1.0, n))], axis=1)
        q1, g, mates = (np.concatenate([x, x], axis=-1) for x in (q1, g, mates))
    pairs = np.concatenate([q1, mates], axis=-1)
    r0, r1 = r, np.roll(r, 1, axis=-1)
    if isinstance(bundle, TrivialBundle):
        # base pairs whose distance moves when a square is libm's pow, not d * d
        a, b = np.random.default_rng(bundle.dim).uniform(-2.0, 2.0, (2, bundle.dim, 20_000))
        exact = [ref_trivial(bundle, "base_distance", x, y) for x, y in zip(a.T, b.T)]
        moved = np.array([math.sqrt(pow_square_sum((x - y).tolist()))
                          for x, y in zip(a.T, b.T)]) != np.array(exact)
        r0, r1 = (np.concatenate([r, c[:, moved]], axis=1) for r, c in ((r0, a), (r1, b)))
    return {
        "project": ("base", (("point", q0),)),
        "act": ("point", (("group", g), ("point", q0))),
        "fiber_translation": ("group", (("point", np.concatenate([q0, q0], axis=-1)),
                                        ("point", pairs))),
        "local_section": ("point", (("base", r),)),
        "distance": (None, (("point", q0), ("point", q1))),
        "base_distance": (None, (("base", r0), ("base", r1))),
    }


def kernel_outcomes(bundle, name, out_kind, args):
    """Per column: the kernel's value on the block, or the error it raises alone."""
    kernel = {"project": bundle.project_rows, "act": bundle.act_rows,
              "fiber_translation": bundle.fiber_rows, "distance": bundle.distance_rows,
              "base_distance": bundle.base_distance_rows}
    if name == "local_section":
        rows, defined = bundle.section_rows(args[0][1])
        values = iter(bundle.values_of("point", rows[:, defined]))
        return [bits(next(values)) if ok else "SectionUndefined" for ok in defined]
    if name == "fiber_translation":
        columns = [[rows[..., k:k + 1] for _, rows in args] for k in range(args[0][1].shape[-1])]
        return [outcome(lambda *c: bundle.values_of("group", bundle.fiber_rows(*c))[0], *c)
                for c in columns]
    rows = kernel[name](*(rows for _, rows in args))
    if out_kind is None:
        return [repr(v) for v in rows.tolist()]
    return [bits(v) for v in bundle.values_of(out_kind, rows)]


@pytest.mark.parametrize("bundle", [HopfBundle(), TrivialBundle(1), TrivialBundle(3)],
                         ids=["hopf", "trivial-r1", "trivial-r3"])
def test_row_kernels_match_the_value_arithmetic(bundle):
    ref = ref_hopf if isinstance(bundle, HopfBundle) else ref_trivial
    for name, (out_kind, args) in kernel_cases(bundle, 2000).items():
        values = [bundle.values_of(kind, rows) for kind, rows in args]
        expected = [outcome(ref, bundle, name, *column) for column in zip(*values)]
        assert kernel_outcomes(bundle, name, out_kind, args) == expected, name
        # the method runs the kernel on one value, without the batch axis
        method = getattr(bundle, name)
        assert [outcome(method, *column) for column in list(zip(*values))[:200]] == expected[:200]
        if isinstance(bundle, HopfBundle) and name == "local_section":
            assert 0 < expected.count("SectionUndefined") < 1000
        if isinstance(bundle, HopfBundle) and name == "fiber_translation":
            assert "NotSameFiber" in expected
    if isinstance(bundle, HopfBundle):
        # points off the sphere by up to 1e-7: the image of each renormalizes
        (_, g), (_, q) = kernel_cases(bundle, 2000)["act"][1]
        moved = np.array(hamilton(np.cos(g), np.sin(g), 0.0, 0.0, *q))[:, 2000:]
        assert (np.sqrt(np.sum(moved * moved, axis=0)) != 1.0).all()


@pytest.mark.parametrize("family", ["closed", "linear", "constant"])
def test_one_pair_without_the_batch_axis_has_the_bits_of_its_batch_column(family):
    # a public call on one pair runs the row code on NumPy scalars and short
    # vectors; its value, and its domain verdict, are those of the pair's column
    if family == "closed":
        bundle, form = HopfBundle(), hopf_closed_form()
    else:
        bundle = TrivialBundle(3)
        params = (0.5, -1.0, 2.0) if family == "linear" else ()
        form = trivial_form_from_C(bundle, make_c_function(family, params, 3))
    lifts = [lift_from_form(form)] + (
        [] if family == "closed" else [trivial_lift_from_C(bundle, make_c_function(
            family, params, 3))])
    states = substream_states(91, range(400))
    q0, q1 = bundle.sample_rows(("point", "point"),
                                draw_rows(states, [0] * 400, 2 * bundle.point_draws))
    if family == "closed":
        # j * q0 lies over the base antipode of q0, outside the closed form's domain
        q1[:, :50] = unit_rows(*hamilton(0.0, 0.0, 1.0, 0.0, *q0[:, :50]))
    p0, p1 = bundle.values_of("point", q0), bundle.values_of("point", q1)
    mask = form.domain_rows(q0, q1)
    assert [form.in_domain(a, b) for a, b in zip(p0, p1)] == mask.tolist()
    assert mask.sum() >= 350 and mask.all() != (family == "closed")
    pairs = [(a, b) for a, b, ok in zip(p0, p1, mask) if ok]
    assert list(map(bits, form.evaluate_many(pairs))) == [bits(form.evaluate(*p)) for p in pairs]
    for lift in lifts:
        items = [(a, bundle.project(b)) for a, b in zip(p0, p1)]
        items = [item for item in items if lift.in_domain(*item)]
        assert len(items) > 300
        assert list(map(bits, lift.lift_many(items))) == [bits(lift.lift(*i)) for i in items]


def test_coordinates_add_left_to_right(monkeypatch):
    # from Python 3.12 sum() compensates: squares 1e16, 1 and 1 add up to 1e16
    # left to right and to 1e16 + 2 compensated, and 1e16 + 1 - 1e16 to 0 against 1
    def compensated(values, start=0):
        return math.fsum([start, *values])

    assert math.sqrt(compensated([1e16, 1.0, 1.0])) != 1e8
    bundle, origin, far = TrivialBundle(3), (0.0, 0.0, 0.0), (1e8, 1.0, 1.0)
    c = make_c_function("linear", (1.0, 1.0, 1.0), 3)
    for compensating in (False, True):
        if compensating:
            monkeypatch.setattr(builtins, "sum", compensated)
        assert bundle.base_distance(origin, far) == 1e8
        assert bundle.distance(bundle.point(origin), bundle.point(far)) == 1e8
        assert c(np.array(origin), np.array((1e16, 1.0, -1e16))) == 0.0
