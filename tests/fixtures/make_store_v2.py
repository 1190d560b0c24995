"""Generator of ``tests/fixtures/store_v2/`` — a durable store in snapshot format 2
as written *before* the stored marking gained its additive ``"fix"`` key.

The twin of ``make_store_v1.py``: the same cases, driven by the same
:func:`make_store_v1.build`, written by the last commit whose cache
write-back stored a positional marking as exactly ``layout`` / ``nodes`` /
``edges`` (and a keyed one as exactly ``node_states`` / ``edge_states``).
It pins the format that commit's successor extends, so — like the
format-1 fixture — it cannot be regenerated from current code: it was
produced **once**, from a checkout of that parent commit::

    git worktree add /tmp/format2 <parent commit>     # or: git clone + checkout
    PYTHONPATH=/tmp/format2/src python tests/fixtures/make_store_v2.py

No network is needed.  Against newer code the write-back adds the key and
the script refuses to keep what it wrote.
``tests/storage/test_store_v1_fixture.py`` runs the same hand-spelled
expectations over both fixtures.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from make_store_v1 import build  # the script's own directory is on sys.path

from repro.system.persistence import FORMAT_VERSION

TARGET = Path(__file__).resolve().parent / "store_v2"
PLAIN_MARKINGS = ({"layout", "nodes", "edges"}, {"node_states", "edge_states"})


def main() -> int:
    if FORMAT_VERSION != 2:
        print(f"this checkout writes snapshot format {FORMAT_VERSION}, not 2", file=sys.stderr)
        return 1
    if TARGET.exists():
        shutil.rmtree(TARGET)
    build(TARGET)
    for leftover in TARGET.iterdir():
        if leftover.name not in ("snapshot.json", "wal.jsonl"):
            leftover.unlink()
    snapshot = json.loads((TARGET / "snapshot.json").read_text())
    extended = sorted(
        case_id
        for case_id, record in snapshot["instances"].items()
        if set(record["marking"]) not in PLAIN_MARKINGS
    )
    if extended:
        shutil.rmtree(TARGET)
        print(
            f"this checkout already extends the stored marking (cases {extended}); the "
            "fixture must be produced by the parent of that change (see the module docstring)",
            file=sys.stderr,
        )
        return 1
    size = sum(path.stat().st_size for path in TARGET.iterdir())
    print(f"wrote {TARGET} ({size} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
