"""End-to-end benchmark of the ``disconn`` command line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-closed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each measured call is ``disconn.cli.run_cli(argv)`` in a fresh interpreter
(``worker.py``), started one at a time from this single process, with the
BLAS/OpenMP thread counts pinned to 1.  A run repeats the workload's call
with inputs drawn from ``--seed`` until ``--seconds`` have passed, checks
every report, and prints one JSON line of details followed by the result
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced calls on the same inputs and reports the
per-layer metrics.  ``METRICS.md`` describes every metric and workload.
"""

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

from spans import LAYERS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

#: workload -> (fixed CLI arguments, size arguments per size)
WORKLOADS = {
    "verify-closed": (
        ["verify", "--bundle", "hopf", "--form", "closed"],
        {"full": ["--samples", "250"], "tiny": ["--samples", "20"]},
    ),
    "verify-geodesic": (
        ["verify", "--bundle", "hopf", "--form", "geodesic"],
        {"full": ["--steps", "256", "--samples", "32"],
         "tiny": ["--steps", "8", "--samples", "8"]},
    ),
    "probe-geodesic": (
        ["slice-probe", "--bundle", "hopf", "--form", "geodesic", "--points", "1"],
        {"full": ["--steps", "128", "--budget", "1"],
         "tiny": ["--steps", "8", "--budget", "1"]},
    ),
    "verify-trivial": (
        ["verify", "--bundle", "trivial", "--form", "trivial-c", "--c-family", "linear"],
        {"full": ["--samples", "1000"], "tiny": ["--samples", "30"]},
    ),
}

#: a worker still running this long after its run started is killed, so
#: that a run ends within 180 s even when a call hangs
RUN_LIMIT_S = 160.0

#: longest ``--seconds``, so that calls end well before ``RUN_LIMIT_S``
MAX_SECONDS = 120.0

#: time of ``worker.reference_loop`` at the reference speed: a round
#: figure near its median on the machine described in METRICS.md.  Timings of the end-to-end
#: metrics are scaled to this speed (see ``end_to_end``).
REFERENCE_S = 3.0e-3

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in _THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    for var in ("PYTHONPATH", "DISCONN_SEED"):
        env.pop(var, None)
    return env


def environment() -> dict:
    revision = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        revision = done.stdout.strip() or revision
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }


def workload_argv(workload: str, size: str, seed: int) -> list:
    fixed, sizes = WORKLOADS[workload]
    return fixed + sizes[size] + ["--seed", str(seed)]


def call_seeds(seed: int):
    """Seeds of the calls of a run: a fixed sequence derived from ``seed``."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2 ** 31)


# ---------------------------------------------------------------------------
# one call
# ---------------------------------------------------------------------------

def spawn(job: dict, deadline: float) -> dict:
    """Run one worker job in a fresh interpreter; never raises for its failures.

    The worker is killed at ``deadline`` (a ``time.monotonic()`` value).
    """
    job = dict(job, src=SRC)
    started = time.monotonic()
    job["spawned"] = started
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(job)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=max(deadline - started, 0.0), check=False)
    except subprocess.TimeoutExpired:
        return {"error": f"call still running {RUN_LIMIT_S} s into the run",
                "wall_s": time.monotonic() - started}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-3:]
        return {"error": f"worker exited {done.returncode}: {' | '.join(tail)}",
                "wall_s": time.monotonic() - started}
    return json.loads(lines[-1])


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _option(argv: list, flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def check_call(argv: list, result: dict) -> list:
    """Problems with one call's output; an empty list means it is correct."""
    if "error" in result:
        return [result["error"]]
    problems = []
    if result["code"] != 0:
        problems.append(f"exit code {result['code']}")
    try:
        report = json.loads(result["report"], parse_constant=_reject_constant)
    except ValueError as exc:
        return problems + [f"report is not strict JSON: {exc}"]
    if report.get("verdict") != "pass":
        problems.append(f"verdict {report.get('verdict')!r}")
    check = check_probe if argv[0] == "slice-probe" else check_verify
    return problems + check(argv, report)


def check_verify(argv: list, report: dict) -> list:
    problems = []
    if report.get("n_samples") != _option(argv, "--samples"):
        problems.append(f"n_samples {report.get('n_samples')} differs from the request")
    for axiom in report.get("axioms", []):
        value = axiom.get("max_violation")
        if axiom.get("failures") != 0:
            problems.append(f"{axiom.get('id')}: {axiom.get('failures')} failures")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{axiom.get('id')}: max_violation {value!r}")
    return problems


def check_probe(argv: list, report: dict) -> list:
    """Every probed point keeps its slice farther than ``separation`` from its orbit."""
    problems = []
    points = report.get("points", [])
    if len(points) != _option(argv, "--points"):
        problems.append(f"{len(points)} points, not the {_option(argv, '--points')} requested")
    for index, point in enumerate(points):
        value = point.get("min_separation")
        if not isinstance(value, (int, float)) or not value > report.get("separation"):
            problems.append(f"point {index}: min_separation {value!r}")
    return problems


# ---------------------------------------------------------------------------
# a run: repeated calls for a fixed time
# ---------------------------------------------------------------------------

def summarize(values: list) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values), "samples": values}
    for pct in (99, 95, 90, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


class Run:
    """Calls of one workload until the time budget is spent."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.calls = []      # (argv, result, problems)
        self.started = time.monotonic()

    def call(self, call_seed: int, trace: int = 0, run_id: str = "",
             spans_path: str = "") -> dict:
        argv = workload_argv(self.workload, self.size, call_seed)
        job = {"mode": "call", "argv": argv, "trace": trace, "run_id": run_id,
               "spans_path": spans_path}
        result = self.spawn(job)
        self.calls.append((argv, result, check_call(argv, result)))
        return result

    def mark_if_different(self, first: dict, second: dict) -> None:
        """Same-seed calls must write byte-identical reports."""
        if first.get("report") != second.get("report"):
            self.calls[-1][2].append("report differs from the same-seed call")

    def spawn(self, job: dict) -> dict:
        return spawn(job, self.started + RUN_LIMIT_S)

    def budget_left(self, last_started: float) -> bool:
        """Whether a call as long as the last one still ends within ``seconds``."""
        now = time.monotonic()
        return now + (now - last_started) <= self.started + self.seconds

    def untraced(self) -> None:
        """Calls s0, s0, s1, s2, ...: the repeated first seed checks determinism."""
        seeds = call_seeds(self.seed)
        first_seed = next(seeds)
        first = self.call(first_seed)
        self.mark_if_different(first, self.call(first_seed))
        for call_seed in seeds:
            last_started = time.monotonic()
            self.call(call_seed)
            if not self.budget_left(last_started):
                break

    def traced(self) -> list:
        """Pairs of an untraced and a traced call on the same seed.

        The spans of the first traced call are written to
        ``.bench_build/trace/<workload>.jsonl``.
        """
        spans_path = os.path.join(BUILD, "trace", f"{self.workload}.jsonl")
        pairs = []
        for index, call_seed in enumerate(call_seeds(self.seed)):
            last_started = time.monotonic()
            plain = self.call(call_seed)
            traced = self.call(call_seed, trace=1,
                               run_id=f"{self.workload}-seed{self.seed}-call{index}",
                               spans_path=spans_path if index == 0 else "")
            self.mark_if_different(plain, traced)
            pairs.append((plain, traced))
            if not self.budget_left(last_started):
                break
        return pairs

    @property
    def failed(self) -> int:
        return sum(1 for _, _, problems in self.calls if problems)


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """``seconds`` as they would read if the reference loop took ``REFERENCE_S``."""
    return seconds * REFERENCE_S / reference_s


def end_to_end(run: Run) -> dict:
    """Timings at reference speed, as measured, and the reference loop's times.

    A call's time is scaled by the mean of the reference times measured
    just before and just after it; its set-up, by the one just after it.
    A call that never reported (killed or crashed) is scaled by the
    median reference time of the run.
    """
    results = [result for _, result, _ in run.calls]
    ok = [r for r in results if "error" not in r]
    if not ok:
        raise BenchmarkError(f"no call completed: {run.calls[0][2]}")
    references = [statistics.fmean(r["reference_s"]) for r in ok]
    fallback = statistics.median(references)
    around = [statistics.fmean(r["reference_s"]) if "reference_s" in r else fallback
              for r in results]
    return {
        "wall_s": summarize([at_reference_speed(r["wall_s"], reference)
                             for r, reference in zip(results, around)]),
        "setup_s": summarize([at_reference_speed(r["setup_s"], r["reference_s"][0])
                              for r in ok]),
        "peak_rss_mb": summarize([r["peak_rss_kb"] / 1024.0 for r in ok]),
        "measured_wall_s": summarize([r["wall_s"] for r in results]),
        "measured_setup_s": summarize([r["setup_s"] for r in ok]),
        "reference_s": summarize(references),
    }


def draw_accept_ratio(data: dict) -> float:
    """Accepted draws over attempts, as the verify report counts them."""
    accepted = sum(data["n_samples"] for a in data["axioms"] if a["worst_input"])
    return accepted / (accepted + data["resampled_out_of_domain"])


def layer_metrics(layers: dict, report: str) -> dict:
    """Per-layer figures of one traced call, named as in METRICS.md."""
    calls, items = layers["calls"], layers["items"]
    inclusive, self_s = layers["inclusive_s"], layers["self_s"]
    layer_self = layers["layer_self_s"]

    def both(table, operation):
        return (table.get(f"connection.{operation}", 0)
                + table.get(f"riemannian.{operation}", 0))

    total = inclusive["cli.run_cli"]
    out = {
        "riemannian.batch_integrations": calls.get("riemannian.evaluate_many", 0),
        "riemannian.single_integrations": calls.get("riemannian.evaluate", 0),
        "riemannian.pair_steps": layers["pair_steps"],
        "riemannian.integrate_s": (inclusive.get("riemannian.evaluate_many", 0.0)
                                   + inclusive.get("riemannian.evaluate", 0.0)),
        "connection.evaluate_many_calls": both(calls, "evaluate_many"),
        "connection.evaluate_many_pairs": both(items, "evaluate_many"),
        "connection.evaluate_many_self_s": self_s.get("connection.evaluate_many", 0.0),
        "connection.lift_many_self_s": self_s.get("connection.lift_many", 0.0),
        "connection.evaluate_calls": both(calls, "evaluate"),
        "connection.in_domain_calls": calls.get("connection.in_domain", 0),
        "connection.in_domain_self_s": self_s.get("connection.in_domain", 0.0),
        "connection.slice_probe_s": inclusive.get("connection.slice_probe", 0.0),
        "bundle.sample_point_calls": calls.get("bundle.sample_point", 0),
        "bundle.sample_point_self_s": self_s.get("bundle.sample_point", 0.0),
        "bundle.act_calls": calls.get("bundle.act", 0),
        "bundle.act_self_s": self_s.get("bundle.act", 0.0),
        "rng.substream_calls": calls.get("rng.substream", 0),
        "rng.substream_self_s": self_s.get("rng.substream", 0.0),
        "verify.check_axioms_s": inclusive.get("verify.check_axioms", 0.0),
        "verify.self_s": layer_self["verify"],
        "cli.self_s": self_s["cli.run_cli"],
        "cli.report_bytes": len(report.encode("utf-8")),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / total
    data = json.loads(report)
    if "axioms" in data:
        out["verify.draw_accept_ratio"] = draw_accept_ratio(data)
    return out


def per_layer(pairs: list, micro: dict) -> dict:
    """Counts from the first traced call; times as medians over traced calls."""
    traced = [(p, t) for p, t in pairs if "layers" in t and "error" not in p]
    if not traced:
        raise BenchmarkError("no traced call completed")
    per_call = [layer_metrics(t["layers"], t["report"]) for _, t in traced]
    out = {}
    for name, first in per_call[0].items():
        if isinstance(first, int):
            out[name] = first
        else:
            out[name] = statistics.median(m[name] for m in per_call)
    out["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] / p["wall_s"] for p, t in traced)
    out.update(micro)
    return out


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> tuple:
    """Run one workload; returns the details (with metric values) and the run."""
    env = environment()
    run = Run(workload, seed, seconds, size)
    # an untimed call first warms the file cache and shows the package loads
    warm = run.spawn({"mode": "call", "argv": ["--version"], "trace": 0})
    if "error" in warm:
        raise BenchmarkError(f"disconn does not start: {warm['error']}")
    env["numpy"] = warm["numpy"]
    details = {"workload": workload, "seed": seed, "size": size, "trace": trace}
    if trace:
        micro = run.spawn({"mode": "micro", "size": size})
        if "error" in micro:
            raise BenchmarkError(f"micro-timings failed: {micro['error']}")
        values = per_layer(run.traced(), micro["micro"])
    else:
        run.untraced()
        e2e = end_to_end(run)
        details["end_to_end"] = e2e
        values = {name: stats["median"] for name, stats in e2e.items()}
    values["failed_ratio"] = run.failed / len(run.calls)
    env["loadavg_after"] = os.getloadavg()
    details.update({
        "environment": env,
        "attempted": len(run.calls),
        "failed": run.failed,
        "failed_ratio": values["failed_ratio"],
        "problems": [p for _, _, problems in run.calls for p in problems][:20],
        "values": values,
    })
    return details, run


def result_line(spec: dict, trace: int, values: dict, run: Run) -> dict:
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": run.failed == 0,
        "attempted": len(run.calls),
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def run_all(spec: dict, seed: int, seconds: float, size: str) -> int:
    """Every end-to-end metric of every workload, by name and unit."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    rows = []
    all_ok = True
    for workload in WORKLOADS:
        details, run = measure(workload, seed, seconds, 0, size)
        print(json.dumps(details), flush=True)
        all_ok = all_ok and run.failed == 0
        for name, unit in units.items():
            rows.append((workload, name, details["values"][name], unit))
        rows.append((workload, "failed_ratio", details["failed_ratio"], "ratio"))
    for workload, name, value, unit in rows:
        print(f"{workload:<16} {name:<14} {value:>12.6g} {unit}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "disconn", "__init__.py")):
        sys.stderr.write(f"error: no disconn package under {SRC}\n")
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not 0 < seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be above 0 and at most {MAX_SECONDS:g}")
    try:
        if args.workload == "all":
            return run_all(spec, args.seed, seconds, args.size)
        details, run = measure(args.workload, args.seed, seconds, args.trace, args.size)
    except BenchmarkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(json.dumps(details))
    print(json.dumps(result_line(spec, args.trace, details["values"], run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
