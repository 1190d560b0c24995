"""Rewrite ``budget.json`` with the counts this interpreter measures.

Run from the repository root, once per Python version the CI matrix
uses (no pytest needed)::

    python tests/budget/record.py

The product counters are the same on every interpreter and are
overwritten; the call counts are stored under this interpreter's minor
version, next to the other versions' ones.  A change that lowers a
count records the lowered one in the same commit.
"""

from __future__ import annotations

import json
import os

from driver import measure

BUDGET = os.path.join(os.path.dirname(os.path.abspath(__file__)), "budget.json")


def record() -> None:
    measured = measure()
    with open(BUDGET, encoding="utf-8") as handle:
        budget = json.load(handle)
    budget["counters"] = measured["counters"]
    budget["calls"][measured["python"]] = measured["calls"]
    with open(BUDGET, "w", encoding="utf-8") as handle:
        json.dump(budget, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded the counters and the Python {measured['python']} calls in {BUDGET}")


if __name__ == "__main__":
    record()
