"""The count gate: every count of ``driver.py`` stays within 1 % of ``budget.json``.

``driver.py`` runs in a fresh interpreter, so no cache another test warmed
changes what it counts.  A count that moves by more than the tolerance
fails in either direction: a rise is a regression, a fall is a gain that
must be recorded (``python tests/budget/record.py`` on each interpreter
of the CI matrix) so the next change is measured against it.  Call
counts depend on the interpreter and are gated only on a Python version
with a recorded budget; the product counters are gated everywhere.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
BUDGET = json.loads((HERE / "budget.json").read_text(encoding="utf-8"))
TOLERANCE = BUDGET["tolerance"]
VERSION = f"{sys.version_info[0]}.{sys.version_info[1]}"
RECORD = "python tests/budget/record.py"


def _drive(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    completed = subprocess.run(
        [sys.executable, str(HERE / "driver.py")],
        check=True,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def measured() -> dict:
    return _drive("0")


def _assert_within(name: str, value: float, budget: float) -> None:
    assert abs(value - budget) <= TOLERANCE * abs(budget), (
        f"{name}: measured {value}, budget {budget} (±{TOLERANCE:.0%}); "
        f"if the change is intended, run `{RECORD}` on every Python version of the CI matrix"
    )


COUNTERS = [
    (run, name) for run, counts in sorted(BUDGET["counters"].items()) for name in sorted(counts)
]
CALLS = [
    (mode, name)
    for mode in ("memory", "durable")
    for name in ("python_calls_per_step", "c_calls_per_step")
]


@pytest.mark.parametrize("run,name", COUNTERS, ids=[f"{run}.{name}" for run, name in COUNTERS])
def test_product_counter(measured, run, name):
    _assert_within(f"{run}.{name}", measured["counters"][run][name], BUDGET["counters"][run][name])


@pytest.mark.parametrize("mode,name", CALLS, ids=[f"{mode}.{name}" for mode, name in CALLS])
def test_calls_per_step(measured, mode, name):
    recorded = BUDGET["calls"].get(VERSION)
    if recorded is None:
        pytest.skip(f"no call budget recorded for Python {VERSION}: run `{RECORD}` on it")
    _assert_within(f"{mode}.{name}", measured["calls"][mode][name], recorded[mode][name])


def test_every_measured_count_has_a_budget(measured):
    assert {run: sorted(counts) for run, counts in measured["counters"].items()} == {
        run: sorted(counts) for run, counts in BUDGET["counters"].items()
    }


def test_counts_do_not_depend_on_the_hash_seed(measured):
    assert _drive("1") == measured
