"""Tier-1 smoke test of the end-to-end benchmark.

Runs all four workloads (twice, same seed) and one traced run at tiny
scale through the very command ``BENCHMARK.json`` names — real shard
process included — and checks the result schema, that metric and
workload names match ``BENCHMARK.json``, that nothing failed, that the
same seed ends in the same states, and that no shard process or temp
store survives.  No timing assertions.
"""

from __future__ import annotations

import json
import subprocess
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["desk", "crowd", "batch", "evolve"]
TINY = ["--seconds", "1", "--blocks", "8", "--scale", "0.05", "--cold-starts", "1"]


def _run(out_dir: Path, workload: str, trace: int, tag: str) -> dict:
    out = out_dir / f"{workload}-{trace}-{tag}.json"
    finished = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--trace", str(trace),
         "--out", str(out), *TINY],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert finished.returncode == 0, finished.stderr
    sandbox = [line.split(" ", 1)[1] for line in finished.stderr.splitlines()
               if line.startswith("sandbox ")]
    return {
        "line": json.loads(finished.stdout.strip().splitlines()[-1]),
        "record": json.loads(out.read_text()),
        "sandbox": sandbox[0],
    }


def test_every_workload_and_one_traced_run(tmp_path: Path) -> None:
    assert [entry["name"] for entry in SPEC["workloads"]] == WORKLOADS
    jobs = [(workload, 0, tag) for workload in WORKLOADS for tag in "ab"] + [("desk", 1, "t")]
    with ThreadPoolExecutor(max_workers=3) as pool:
        results = list(pool.map(lambda job: _run(tmp_path, *job), jobs))

    for (workload, trace, _tag), result in zip(jobs, results):
        line = result["line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0, result["record"]["failures"]
        assert line["attempted"] >= 1
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(line["metrics"]) == [metric["name"] for metric in expected]
        for metric in expected:
            reported = line["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
        if not trace:
            assert all(line["metrics"][m["name"]]["value"] > 0 for m in expected)

    digests = {
        (workload, tag): result["record"]["digest"]
        for (workload, trace, tag), result in zip(jobs, results)
        if not trace
    }
    for workload in WORKLOADS:
        assert digests[(workload, "a")] == digests[(workload, "b")]

    # nothing leaks: every sandbox is gone and no process still names one
    sandboxes = [result["sandbox"] for result in results]
    assert not [path for path in sandboxes if Path(path).exists()]
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes().decode(errors="replace")
            except OSError:
                continue
            assert not any(path in command for path in sandboxes), command
