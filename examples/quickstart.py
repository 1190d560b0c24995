#!/usr/bin/env python3
"""Quickstart: model a process, run an instance, change it ad hoc.

Covers the basic public API surface in a couple of minutes of reading:

1. build and verify a block-structured process schema,
2. deploy it into one :class:`AdeptSystem` and execute a case through
   handle-based sessions,
3. apply a correctness-preserving ad-hoc change to the running case as a
   transactional ChangeSet,
4. inspect the case with the monitoring component and the event feed.

Run with ``python examples/quickstart.py``.
"""

try:  # installed package, or the caller already set PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # fresh checkout: fall back to the in-tree sources
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import AdeptSystem, DataType, SchemaBuilder, verify_schema


def build_schema():
    """A small order-handling process with a parallel block."""
    builder = SchemaBuilder("quickstart_orders", name="quickstart_orders")
    builder.data("order", DataType.DOCUMENT)
    builder.data("approved", DataType.BOOLEAN, default=False)
    builder.activity("receive_order", role="clerk", writes=["order"])
    builder.parallel(
        [
            lambda seq: seq.activity("check_stock", role="warehouse", reads=["order"]),
            lambda seq: seq.activity("check_credit", role="sales", reads=["order"], writes=["approved"]),
        ],
        label="checks",
    )
    builder.activity("ship_order", role="logistics", reads=["order", "approved"])
    return builder.build()


def main() -> None:
    schema = build_schema()

    # 1. buildtime verification (deploy() verifies too; show the report)
    report = verify_schema(schema, check_soundness=True)
    print("=== verification ===")
    print(report.summary())
    print()

    # 2. one system, one deployed type, one running case — all by handle
    system = AdeptSystem()
    # the feed counts changes and lifecycle events and keeps none; step 4
    # shows the newest events, per-step engine ones included (built only
    # for a subscriber), from a list subscribed to every category
    events = []
    system.bus.subscribe(events.append)
    orders = system.deploy(schema)
    case = orders.start(case_id="order-0001")
    print("=== execution ===")
    print("activated after creation:", case.activated())
    case.complete("receive_order", outputs={"order": {"item": "chair", "qty": 2}})
    print("activated after receive_order:", case.activated())
    case.complete("check_stock")

    # 3. ad-hoc change: this one order additionally needs a manager approval
    #    before shipping — a transactional ChangeSet on the running case only.
    print()
    print("=== ad-hoc change (transactional ChangeSet) ===")
    succ = case.raw.execution_schema.successors("check_credit")[0]
    result = (
        case.change(comment="large order needs manager sign-off")
        .serial_insert("manager_approval", pred="check_credit", succ=succ,
                       name="manager approval", role="manager")
        .apply()
    )
    print(f"applied {result.operations} operation(s); case is now biased:", case.is_biased)

    # 4. finish the case and inspect it
    case.complete("check_credit", outputs={"approved": True})
    case.complete("manager_approval")
    case.complete("ship_order")

    print()
    print("=== monitoring ===")
    monitor = case.monitor()
    print(monitor.progress_line())
    print()
    print(monitor.bias_view())
    print()
    print(monitor.history_view())
    print()
    print("event feed counts:", system.feed.category_counts())
    print(f"last 8 of {len(events)} event(s):")
    for event in events[-8:]:
        print(f"  {event}")


if __name__ == "__main__":
    main()
