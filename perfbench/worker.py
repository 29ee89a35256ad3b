"""One benchmark call in a fresh interpreter.

``run.py`` starts this script once per measured call and reads one JSON
object from its standard output.  The argument is a JSON job:

* ``{"mode": "call", "argv": [...], "spawned": t, "trace": 0|1, ...}``
  runs ``disconn.cli.run_cli(argv)`` and reports the set-up time (from
  ``spawned``, the parent's ``time.monotonic()`` just before the process
  was started, to the moment ``disconn`` is imported), the wall time of
  the call, the captured report and the peak resident memory.  It also
  times a fixed reference loop (:func:`reference_s`) just before and
  just after the call, so that ``run.py`` can scale both times to the
  reference speed of the machine.  With
  ``trace`` set, the call runs under :class:`spans.Tracer` and, when the
  job names a ``spans_path``, the recorded spans are written there.
* ``{"mode": "micro", "size": "full"|"tiny"}`` times single public calls
  of each module (see :func:`micro_timings`).

Nothing is imported before the set-up stamp except what ``disconn``
itself needs, so ``setup_s`` is what a command-line user pays.
"""

import os
import sys
import time

#: runs of the reference loop on each side of a call
REFERENCE_REPEATS = 9


def _import_disconn(src: str):
    sys.path.insert(0, src)
    import disconn
    import disconn.cli

    here = os.path.realpath(os.path.dirname(disconn.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"disconn was imported from {here}, not from {src}")
    return disconn


def run_call(job: dict, disconn) -> dict:
    import contextlib
    import io
    import resource

    run_cli = disconn.cli.run_cli
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer(run_id=job["run_id"])
        tracer.install(disconn)
        run_cli = disconn.cli.run_cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = run_cli(job["argv"])
        wall = time.perf_counter() - start
    result = {
        "code": code,
        "wall_s": wall,
        "report": out.getvalue(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if job["spans_path"]:
            tracer.write(job["spans_path"])
    return result


def reference_loop() -> float:
    """Fixed work that uses nothing of ``disconn``.

    It is the mix ``disconn``'s calls are made of: float arithmetic,
    tuple and dict churn, numpy ufuncs on small arrays and, every eighth
    pass, a small batched ``numpy.linalg.solve``.
    """
    import numpy

    vec = numpy.arange(4.0)
    gram = numpy.eye(5)[None].repeat(8, 0) * 2.0 + 0.1
    rhs = numpy.ones((8, 5, 1))
    acc = 0.0
    table = {}
    for i in range(350):
        pair = (i * 0.5, i + 1.0, -float(i))
        acc += sum(pair) * 1e-9
        table[i % 61] = [i, pair]
        wave = numpy.sin(vec * (i * 1e-3)) + numpy.cos(vec)
        acc += float(numpy.sum(wave * wave)) * 1e-12
        if i % 8 == 0:
            acc += float(numpy.linalg.solve(gram, rhs)[0, 0, 0]) * 1e-12
    return acc + len(table)


def reference_s() -> float:
    """Median time of ``reference_loop`` over ``REFERENCE_REPEATS`` runs of it."""
    samples = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def _per_call_us(fn, items, repeats: int) -> float:
    """Median over ``repeats`` of the mean time per item of ``fn(item)``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            fn(item)
        samples.append((time.perf_counter() - start) / len(items) * 1e6)
    samples.sort()
    return samples[len(samples) // 2]


#: integrator steps of the micro-timings, per size
MICRO_STEPS = {"full": 64, "tiny": 4}


def micro_timings(disconn, size: str) -> dict:
    """Per-call cost of the public operations each layer is built from.

    Loops run 10^3 calls (10 at the tiny size) on distinct inputs drawn
    from a fixed stream.  The integrator is timed as one pair per call
    (``n1``) and as one batch of 10^3 pairs (``n1000``), both at
    ``MICRO_STEPS`` steps, and reported per pair-step.
    """
    from disconn import (
        CircleElement, HopfBundle, Quaternion, TrivialBundle, UnitQuaternion,
        hopf_closed_form, make_c_function, riemannian_form, trivial_form_from_C,
    )
    from disconn.rng import substream

    n = 1000 if size == "full" else 10
    steps = MICRO_STEPS[size]
    repeats = 5 if size == "full" else 2
    rng = substream(7, 0x3BE7C)
    hopf = HopfBundle()
    trivial = TrivialBundle(1)
    quats = [hopf.sample_point(rng) for _ in range(n + 1)]
    hopf_pairs = list(zip(quats[:-1], quats[1:]))
    tpoints = [trivial.sample_point(rng) for _ in range(n + 1)]
    trivial_pairs = list(zip(tpoints[:-1], tpoints[1:]))
    angles = [CircleElement(rng.angle()) for _ in range(n + 1)]
    components = [q.components() for q in quats]
    plain = [Quaternion(*c) for c in components]

    closed = hopf_closed_form()
    linear = trivial_form_from_C(trivial, make_c_function("linear", (0.5,), 1))
    built = riemannian_form(steps)
    return {
        "riemannian.us_per_pair_step.n1":
            _per_call_us(lambda p: built.evaluate(*p), hopf_pairs[:3], repeats) / steps,
        "riemannian.us_per_pair_step.n1000":
            _per_call_us(built.evaluate_many, [hopf_pairs], repeats) / (n * steps),
        "connection.closed_evaluate_us":
            _per_call_us(lambda p: closed.evaluate(*p), hopf_pairs, repeats),
        "connection.trivial_evaluate_us":
            _per_call_us(lambda p: linear.evaluate(*p), trivial_pairs, repeats),
        "bundle.hopf_sample_point_us":
            _per_call_us(lambda _: hopf.sample_point(rng), range(n), repeats),
        "bundle.trivial_sample_point_us":
            _per_call_us(lambda _: trivial.sample_point(rng), range(n), repeats),
        "algebra.quat_mul_us":
            _per_call_us(lambda k: plain[k] * plain[k + 1], range(n), repeats),
        "algebra.unit_quat_new_us":
            _per_call_us(lambda c: UnitQuaternion(*c), components, repeats),
        "algebra.circle_mul_us":
            _per_call_us(lambda k: angles[k] * angles[k + 1], range(n), repeats),
        "rng.substream_draw_us":
            _per_call_us(lambda k: substream(11, 3, k).uniform(), range(n), repeats),
    }


def main() -> None:
    import json

    job = json.loads(sys.argv[1])
    disconn = _import_disconn(job["src"])
    ready = time.monotonic()
    if job["mode"] == "call":
        reference_before = reference_s()
        result = run_call(job, disconn)
        result["setup_s"] = ready - job["spawned"]
        result["reference_s"] = [reference_before, reference_s()]
    else:
        result = {"micro": micro_timings(disconn, job["size"])}
    import numpy

    result["numpy"] = numpy.__version__
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
