"""Golden reports: fixed CLI runs must reproduce their recorded bytes.

Each case reruns one command through ``run_cli`` and compares its stdout,
stderr and exit code with the files under ``tests/golden/``.  A change to
any report bumps ``artifact_version`` and regenerates the files with these
commands, run from the repository root:

PYTHONPATH=src python -m disconn.cli verify --bundle hopf --form closed --samples 300 --seed 42 > tests/golden/verify-closed.out 2> tests/golden/verify-closed.err
PYTHONPATH=src python -m disconn.cli verify --bundle trivial --form trivial-c --c-family linear --c-params 0.5 --samples 300 --seed 42 > tests/golden/verify-trivial-linear.out 2> tests/golden/verify-trivial-linear.err
PYTHONPATH=src python -m disconn.cli verify --bundle trivial --form trivial-c --c-family linear --dim 3 --c-params 0.5,-1,2 --samples 300 --seed 7 > tests/golden/verify-trivial-dim3.out 2> tests/golden/verify-trivial-dim3.err
PYTHONPATH=src python -m disconn.cli verify --bundle hopf --form geodesic --steps 32 --samples 64 --seed 5 > tests/golden/verify-geodesic-64.out 2> tests/golden/verify-geodesic-64.err
PYTHONPATH=src python -m disconn.cli verify --bundle hopf --form geodesic --steps 32 --samples 1100 --seed 5 > tests/golden/verify-geodesic-1100.out 2> tests/golden/verify-geodesic-1100.err
PYTHONPATH=src python -m disconn.cli verify --bundle hopf --form lmw --steps 16 --samples 40 --seed 13 > tests/golden/verify-lmw.out 2> tests/golden/verify-lmw.err
PYTHONPATH=src python -m disconn.cli verify --bundle hopf --form geodesic --steps 256 --samples 32 --seed 42 > tests/golden/verify-geodesic-256.out 2> tests/golden/verify-geodesic-256.err
PYTHONPATH=src python -m disconn.cli verify --bundle hopf --form lmw --steps 256 --samples 32 --seed 13 > tests/golden/verify-lmw-256.out 2> tests/golden/verify-lmw-256.err
PYTHONPATH=src python -m disconn.cli verify --bundle hopf --form geodesic --steps 4 --samples 2500 --seed 3 > tests/golden/verify-stray.out 2> tests/golden/verify-stray.err
PYTHONPATH=src python -m disconn.cli compare --bundle hopf --form-a geodesic --form-b closed --steps 32 --samples 100 --seed 42 > tests/golden/compare.out 2> tests/golden/compare.err
PYTHONPATH=src python -m disconn.cli sweep --steps 256 > tests/golden/sweep.out 2> tests/golden/sweep.err
PYTHONPATH=src python -m disconn.cli slice-probe --bundle hopf --form closed --points 2 --budget 8 --seed 42 > tests/golden/probe-closed.out 2> tests/golden/probe-closed.err
PYTHONPATH=src python -m disconn.cli slice-probe --bundle hopf --form geodesic --points 1 --steps 16 --budget 4 --seed 11 > tests/golden/probe-geodesic.out 2> tests/golden/probe-geodesic.err
PYTHONPATH=src python -m disconn.cli slice-probe --bundle hopf --form geodesic --points 1 --steps 128 --budget 1 --seed 1764603822 > tests/golden/probe-geodesic-1.out 2> tests/golden/probe-geodesic-1.err

The exit code of each case is recorded in ``CASES``.
"""

import json
from pathlib import Path

import pytest

import disconn
from disconn.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"

#: name -> (argv, exit code)
CASES = {
    "verify-closed": (
        "verify --bundle hopf --form closed --samples 300 --seed 42", 0),
    "verify-trivial-linear": (
        "verify --bundle trivial --form trivial-c --c-family linear --c-params 0.5 "
        "--samples 300 --seed 42", 0),
    # the only case on a base of more than one coordinate
    "verify-trivial-dim3": (
        "verify --bundle trivial --form trivial-c --c-family linear --dim 3 "
        "--c-params 0.5,-1,2 --samples 300 --seed 7", 0),
    "verify-geodesic-64": (
        "verify --bundle hopf --form geodesic --steps 32 --samples 64 --seed 5", 0),
    "verify-geodesic-1100": (
        "verify --bundle hopf --form geodesic --steps 32 --samples 1100 --seed 5", 0),
    "verify-lmw": (
        "verify --bundle hopf --form lmw --steps 16 --samples 40 --seed 13", 1),
    # the benchmark's verify-geodesic workload, and the variant, both at the
    # default step count
    "verify-geodesic-256": (
        "verify --bundle hopf --form geodesic --steps 256 --samples 32 --seed 42", 0),
    "verify-lmw-256": (
        "verify --bundle hopf --form lmw --steps 256 --samples 32 --seed 13", 1),
    # one stray endpoint aborts the run: no report, exit 2 and the reason
    "verify-stray": (
        "verify --bundle hopf --form geodesic --steps 4 --samples 2500 --seed 3", 2),
    "compare": (
        "compare --bundle hopf --form-a geodesic --form-b closed --steps 32 "
        "--samples 100 --seed 42", 0),
    "sweep": ("sweep --steps 256", 0),
    "probe-closed": (
        "slice-probe --bundle hopf --form closed --points 2 --budget 8 --seed 42", 0),
    "probe-geodesic": (
        "slice-probe --bundle hopf --form geodesic --points 1 --steps 16 --budget 4 "
        "--seed 11", 0),
    # both rounds integrate one pair each, so the report comes from the
    # one-column path
    "probe-geodesic-1": (
        "slice-probe --bundle hopf --form geodesic --points 1 --steps 128 --budget 1 "
        "--seed 1764603822", 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(capsys, name):
    command, code = CASES[name]
    assert (f"python -m disconn.cli {command} > tests/golden/{name}.out "
            f"2> tests/golden/{name}.err") in __doc__
    assert run_cli(command.split()) == code
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.out").read_bytes().decode()
    assert captured.err == (GOLDEN / f"{name}.err").read_bytes().decode()
    if captured.out.startswith("{"):
        assert json.loads(captured.out)["artifact_version"] == disconn.__version__
