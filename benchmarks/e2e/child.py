"""Child-process entry points: seeding a store and one cold start.

Seeding runs here so the measuring process never holds the seeding
garbage (``peak_rss_mb`` would read it); a cold start runs here so
``setup_s`` is a real restart — interpreter, imports, snapshot load,
WAL-suffix replay, worklist re-offer — not a warm second ``open``.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv: list) -> int:
    command = argv[0]
    if command == "seed":
        from workloads import WORKLOADS

        name, store, seed, scale = argv[1], argv[2], int(argv[3]), float(argv[4])
        meta = WORKLOADS[name].seed_store(store, seed, scale)
        print(json.dumps(meta))
        return 0
    if command == "coldstart":
        from repro.system import AdeptSystem

        AdeptSystem.open(argv[1], cache_instances=int(argv[2]))
        print("ready", flush=True)
        # no close(): a restart-to-ready must leave the store as it found it
        os._exit(0)
    raise SystemExit(f"unknown child command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
