"""Compare two sets of runs: ``python3 benchmarks/e2e/compare.py A B``.

``A`` and ``B`` are directories of result files written by ``run.py``
(``--out DIR/<name>.json``), ``A`` being the base.  For every workload
and end-to-end metric the table shows both medians with their
quartiles, the ratio B/A, the metric's bound from ``BENCHMARK.json``
and a verdict:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``WORSE`` — it is;
* ``unresolved`` — the run-to-run spread of either set (distance
  between quartiles as a share of the median) exceeds the bound, so
  the sets cannot tell.

Runs with ``host.disturbed_block_frac`` > 0.5 are listed, never dropped.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]


def load(directory: str) -> Dict[str, List[Dict[str, Any]]]:
    """Result records of one set, by workload (end-to-end runs only)."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if isinstance(record, dict) and record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values: List[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` — the driver's spread."""
    middle = median(values)
    if len(values) < 2:
        return middle, middle, middle, 0.0
    q1, _, q3 = quantiles(values, n=4)
    return middle, q1, q3, (q3 - q1) / middle


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    base, other = load(argv[0]), load(argv[1])
    print(f"{'workload':8} {'metric':20} {'A median [q1, q3] (n)':36} "
          f"{'B median [q1, q3] (n)':36} {'B/A':>7} {'bound':>6}  verdict")
    for workload in (entry["name"] for entry in spec["workloads"]):
        if workload not in base or workload not in other:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run["metrics"][name]["value"] for run in base[workload]]
            b = [run["metrics"][name]["value"] for run in other[workload]]
            a_mid, a_q1, a_q3, a_spread = spread(a)
            b_mid, b_q1, b_q3, b_spread = spread(b)
            ratio = b_mid / a_mid
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            if max(a_spread, b_spread) > bound:
                verdict = f"unresolved (spread {max(a_spread, b_spread):.3f})"
            else:
                verdict = "WORSE" if worse > bound else "ok"
            print(
                f"{workload:8} {name:20} "
                f"{f'{a_mid:.4g} [{a_q1:.4g}, {a_q3:.4g}] ({len(a)})':36} "
                f"{f'{b_mid:.4g} [{b_q1:.4g}, {b_q3:.4g}] ({len(b)})':36} "
                f"{ratio:7.3f} {bound:6.2f}  {verdict}"
            )
    for label, runs in (("A", base), ("B", other)):
        for workload, records in runs.items():
            for record in records:
                disturbed = record["diagnostics"].get("host.disturbed_block_frac", 0.0)
                if disturbed > 0.5:
                    print(f"note: set {label} {workload} seed {record['seed']}: "
                          f"{disturbed:.0%} of blocks disturbed "
                          f"(calibration {record['diagnostics']['host.calib_ms']:.1f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
