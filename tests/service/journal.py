"""A shard's journal, read from its store directory as a test oracle.

The shard serves no journal summary: what a shard journaled is what its
``wal.jsonl`` holds once a request is acknowledged, so tests read the
file, as ``benchmarks/e2e/workloads.py``'s ``exactly_once`` does.
"""

import json
from collections import Counter
from pathlib import Path
from typing import Any, Dict


def journal_summary(store: str) -> Dict[str, Any]:
    """Record counts by kind, the evolution records, completions per case."""
    counts: Counter = Counter()
    evolutions = []
    steps_by_instance: Counter = Counter()
    wal = Path(store) / "wal.jsonl"
    lines = wal.read_text(encoding="utf-8").splitlines() if wal.exists() else []
    for line in filter(str.strip, lines):
        record = json.loads(line)
        counts[record["kind"]] += 1
        if record["kind"] == "evolution":
            evolutions.append(
                {"type_id": record.get("type_id"), "candidates": record.get("candidates", [])}
            )
        elif record["kind"] == "step" and record.get("action") == "complete":
            steps_by_instance[record["instance_id"]] += 1
    return {
        "counts": dict(counts),
        "evolutions": evolutions,
        "steps_by_instance": dict(steps_by_instance),
    }
