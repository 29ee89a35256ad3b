"""Self-test of the benchmark at tiny input sizes.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it makes two traced runs with the same seed and one
untraced run, all at ``--size tiny``, and checks that:

* every run exits 0 and finds every output correct;
* the traced counts (every whole-number per-layer figure, such as the
  ``*_calls``, ``*_pairs`` and ``riemannian.pair_steps``) are equal in the
  two traced runs;
* the metrics a run reports are exactly those ``BENCHMARK.json`` lists,
  and every metric and workload name matches ``[A-Za-z0-9_.-]+``.

It prints one line per check group and exits 1 at the first failure.
"""

import json
import os
import re
import subprocess
import sys

from run import ROOT, WORKLOADS, load_spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


class SelfTestFailure(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def bench(workload: str, trace: int) -> tuple:
    """Details and result line of one tiny run."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, check=False)
    check(done.returncode == 0,
          f"{workload} trace={trace} exited {done.returncode}: {done.stderr.strip()}")
    details, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
          f"{workload} trace={trace}: {details['problems']}")
    return details, result


def names_are_valid(spec: dict) -> None:
    listed = [w["name"] for w in spec["workloads"]]
    listed += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in listed:
        check(NAME.fullmatch(name) is not None, f"invalid name {name!r}")
    check(len(listed) == len(set(listed)), "a name is used twice")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads differ from run.py")


def main() -> int:
    spec = load_spec()
    try:
        names_are_valid(spec)
        print("names: ok")
        for workload in WORKLOADS:
            _, plain = bench(workload, 0)
            check(list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]],
                  f"{workload}: end-to-end metrics {list(plain['metrics'])}")
            first, traced = bench(workload, 1)
            second, _ = bench(workload, 1)
            check(list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]],
                  f"{workload}: per-layer metrics {list(traced['metrics'])}")
            for name, value in first["values"].items():
                check(NAME.fullmatch(name) is not None, f"invalid metric name {name!r}")
                if isinstance(value, int):
                    check(second["values"][name] == value,
                          f"{workload}: {name} was {value}, then {second['values'][name]}")
            counts = sum(isinstance(v, int) for v in first["values"].values())
            print(f"{workload}: ok ({counts} counts repeat exactly)")
    except SelfTestFailure as exc:
        print(f"FAIL: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
