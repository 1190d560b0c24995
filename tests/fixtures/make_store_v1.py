"""Generator of ``tests/fixtures/store_v1/`` — a durable store in snapshot format 1.

The fixture pins the *old* stored-record layout (keyed ``node_states`` /
``edge_states`` markings, one dict per history entry), so it cannot be
regenerated from current code: it was produced **once, by the commit that
last wrote format 1** (the parent of the change that introduced positional
markings and history rows), from a checkout of that commit::

    git worktree add /tmp/format1 <parent commit>     # or: git clone + checkout
    PYTHONPATH=/tmp/format1/src python tests/fixtures/make_store_v1.py

No network is needed.  Running it against newer code writes a newer format
and defeats the fixture's purpose — the script refuses to.

What the store holds (``tests/storage/test_store_v1_fixture.py`` spells the
expected state of every case out by hand):

* two process types — ``online_order`` (v1, and v2 published by a canary
  rollout) and ``loop_process`` (v1);
* in the **snapshot**: eight ``online_order`` cases at spread progress
  (``order-6`` completed, ``order-biased`` ad-hoc changed, ``order-0`` and
  ``order-1`` adopted by the canary — their ``pre_state`` sits in the
  rollout, which is still *observing* an 80 % cohort that ``order-2`` and
  ``order-3`` are not part of), three ``loop_process`` cases
  (``loop-2`` is in its second loop iteration: the first one's entries are
  superseded);
* in the **WAL suffix** after the checkpoint: ``instance_started``,
  ``step``, ``instance_adopted``, ``instance_saved`` and ``adhoc_change``
  records.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from repro.runtime.engine import ProcessEngine
from repro.schema import templates
from repro.system import AdeptSystem
from repro.system.persistence import FORMAT_VERSION
from repro.workloads.order_process import order_type_change_v2

TARGET = Path(__file__).resolve().parent / "store_v1"


def build(directory: Path) -> None:
    system = AdeptSystem.open(directory)
    orders = system.deploy(templates.online_order_process())
    loops = system.deploy(templates.loop_process(body_length=2, max_iterations=5))

    # online_order: progress 0..6 activities (6 = completed)
    for progress in range(7):
        case_id = f"order-{progress}"
        orders.start(case_id=case_id)
        if progress:
            system.step_many([case_id], steps=progress)
    orders.start(case_id="order-biased")
    system.step_many(["order-biased"], steps=1)
    system.change("order-biased", comment="verify the address first").serial_insert(
        "verify_address", pred="get_order", succ="collect_data", role="clerk"
    ).apply(user="alice")

    # loop_process: untouched / mid first iteration / second iteration
    for case_id in ("loop-0", "loop-1", "loop-2"):
        loops.start(case_id=case_id)
    system.step_many(["loop-1"], steps=2)
    system.complete("loop-2", "prepare")
    system.complete("loop-2", "body_1")
    system.complete("loop-2", "body_2", outputs={"done": False})  # loops back
    system.complete("loop-2", "body_1", user="bob")

    # a canary that keeps observing; touching two cohort cases makes them
    # adopt (order-2 and order-3 hash outside the 80 % cohort and stay on v1)
    orders.evolve(
        order_type_change_v2(),
        rollout="canary",
        fraction=0.8,
        canary_decide="external",
    )
    system.step_many(["order-0", "order-1"], steps=1)
    system.checkpoint()

    # the WAL suffix
    loops.start(case_id="loop-late")  # instance_started
    system.step_many(["loop-late", "loop-0"], steps=1)  # step
    outside = ProcessEngine().create_instance(
        system.repository.resolve("loop_process", 1), "loop-adopted"
    )
    system.adopt_instance(outside)  # instance_adopted
    system.save("loop-1")  # instance_saved
    system.change("loop-late", comment="double check").serial_insert(
        "review", pred="finish", succ="end", role="worker"
    ).apply()  # adhoc_change
    system.close(checkpoint=False)


def main() -> int:
    if FORMAT_VERSION != 1:
        print(
            f"this checkout writes snapshot format {FORMAT_VERSION}; the fixture must be "
            "produced by the last commit that wrote format 1 (see the module docstring)",
            file=sys.stderr,
        )
        return 1
    if TARGET.exists():
        shutil.rmtree(TARGET)
    build(TARGET)
    for leftover in TARGET.iterdir():
        if leftover.name not in ("snapshot.json", "wal.jsonl"):
            leftover.unlink()
    size = sum(path.stat().st_size for path in TARGET.iterdir())
    print(f"wrote {TARGET} ({size} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
