"""Command line interface of the ADEPT2 reproduction.

Installed as ``adept2-repro`` (see ``pyproject.toml``); also runnable via
``python -m repro.cli``.  Every command that executes or migrates
instances drives exactly one :class:`repro.system.AdeptSystem` — the CLI
is the thinnest possible shell around the service façade:

* ``templates`` — list the bundled process templates;
* ``verify`` — run buildtime verification over a schema JSON file or a
  bundled template;
* ``render`` — print a schema as ASCII or Graphviz DOT;
* ``simulate`` — create and execute instances of a template;
* ``run`` — drive a named scenario through the façade, optionally with
  machine-readable ``--json`` output and a durable ``--store PATH``;
* ``recover`` — open a durable store, report what recovery replayed and
  (optionally) compact it into a fresh checkpoint;
* ``demo-fig1`` — rerun the paper's Fig. 1 migration example;
* ``demo-fig3`` — evolve the online-order type against a population of
  running instances and print the migration report;
* ``serve`` — spawn N shard processes over one base store and route
  until interrupted (Ctrl-C drains and checkpoints every shard);
* ``shard-status`` — query a running shard fleet and print per-shard
  state plus aggregated telemetry.

Commands accepting ``--store PATH`` run against a *durable* system
(``AdeptSystem.open``): state survives across invocations, every committed
mutation is journaled to the store's write-ahead log, and the run ends
with a checkpoint (see ``docs/persistence.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.monitoring.render import render_schema_ascii, render_schema_dot
from repro.monitoring.report import render_migration_report
from repro.schema import templates
from repro.schema.graph import ProcessSchema
from repro.schema.serialization import load_schema
from repro.system import AdeptSystem
from repro.system.events import CATEGORY_ENGINE
from repro.verification.verifier import SchemaVerifier
from repro.workloads.order_process import (
    order_type_change_v2,
    paper_fig1_system,
    paper_fig3_system,
)

_TEMPLATE_FACTORIES = {
    "online_order": templates.online_order_process,
    "patient_treatment": templates.patient_treatment_process,
    "container_transport": templates.container_transport_process,
    "credit_application": templates.credit_application_process,
    "sequence": templates.sequential_process,
    "loop_process": templates.loop_process,
}


def _resolve_schema(source: str) -> ProcessSchema:
    """Interpret ``source`` as a bundled template name or a schema JSON file."""
    if source in _TEMPLATE_FACTORIES:
        return _TEMPLATE_FACTORIES[source]()
    return load_schema(source)


def _make_system(args: argparse.Namespace) -> AdeptSystem:
    """An in-memory system, or a durable one when ``--store`` was given."""
    store = getattr(args, "store", None)
    if store:
        return AdeptSystem.open(store)
    return AdeptSystem()


def _with_engine_feed(system: AdeptSystem) -> AdeptSystem:
    """``system`` with its feed also showing the per-step ``engine`` events.

    The default feed leaves them out; the ``run`` reports count them.
    """
    system.bus.subscribe(system.feed, categories=[CATEGORY_ENGINE])
    return system


def _deploy_or_reuse(system: AdeptSystem, schema: ProcessSchema):
    """Deploy ``schema``, or reuse the deployed type of the same name.

    A durable store already contains the types of earlier invocations;
    re-running a scenario against it extends the population instead of
    failing on the duplicate deployment.
    """
    if system.repository.has_type(schema.name):
        return system.type(schema.name)
    return system.deploy(schema)


# --------------------------------------------------------------------------- #
# sub-commands
# --------------------------------------------------------------------------- #


def _cmd_templates(args: argparse.Namespace) -> int:
    print("bundled process templates:")
    for name, factory in _TEMPLATE_FACTORIES.items():
        schema = factory()
        nodes, edges, elements, data_edges = schema.size()
        print(
            f"  {name:<22} {len(schema.activity_ids()):>3} activities, "
            f"{nodes:>3} nodes, {edges:>3} edges, {elements:>2} data elements"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    schema = _resolve_schema(args.schema)
    verifier = SchemaVerifier(check_soundness=args.soundness)
    report = verifier.verify(schema)
    print(report.summary())
    return 0 if report.is_correct else 1


def _cmd_render(args: argparse.Namespace) -> int:
    schema = _resolve_schema(args.schema)
    if args.format == "dot":
        print(render_schema_dot(schema))
    else:
        print(render_schema_ascii(schema))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    schema = _resolve_schema(args.schema)
    system = _make_system(args)
    process_type = _deploy_or_reuse(system, schema)
    cases = []
    for index in range(args.instances):
        # generated case ids with a durable store (fixed ids would collide
        # with the cases persisted by earlier invocations)
        case_id = None if getattr(args, "store", None) else f"sim-{index:04d}"
        cases.append(process_type.start(case_id=case_id))
    if args.workers > 1:
        # the multi-worker runtime: N threads claim and complete the
        # offered work items concurrently from one shared queue
        system.serve(workers=args.workers)
        stats = system.drain()
        print(f"worker pool: {stats.summary()}")
    else:
        for case in cases:
            case.run()
    print(f"simulated {args.instances} instance(s) of {schema.name!r}")
    print(system.statistics().summary())
    if cases and args.show_history:
        print()
        print(cases[0].monitor().history_view(reduced=True))
    system.close()
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Open a durable store, report the recovery, optionally checkpoint."""
    system = AdeptSystem.open(args.store)
    report = system.last_recovery
    if args.json:
        payload = {
            "store": args.store,
            "snapshot_loaded": report.snapshot_loaded,
            "snapshot_instances": report.snapshot_instances,
            "snapshot_schema_versions": report.snapshot_schema_versions,
            "replayed_records": report.replayed_records,
            "replayed_by_kind": report.replayed_by_kind,
            "types": len(system.repository),
            "instances": len(system.store) + len(
                [i for i in system.live_instance_ids() if not system.store.contains(i)]
            ),
            "checkpointed": bool(args.checkpoint),
        }
        if args.checkpoint:
            system.checkpoint()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"recovered {args.store!r}:")
        print(report.summary())
        print(f"types: {len(system.repository)}, live instances: {len(system.live_instance_ids())}, "
              f"stored instances: {len(system.store)}")
        if args.checkpoint:
            system.checkpoint()
            print("checkpoint written; write-ahead log truncated")
    system.close(checkpoint=False)
    return 0


def _discover_fleet(base_store: str) -> Dict[str, Any]:
    """Read every shard's ``endpoint.json`` under a ``serve`` base store."""
    from pathlib import Path

    from repro.service.shard_server import ENDPOINT_FILE

    endpoints: Dict[str, Any] = {}
    for endpoint_file in sorted(Path(base_store).glob(f"*/{ENDPOINT_FILE}")):
        payload = json.loads(endpoint_file.read_text())
        endpoints[payload["shard_id"]] = (payload["host"], payload["port"])
    return endpoints


def _cmd_serve(args: argparse.Namespace) -> int:
    """Spawn shards + router; drain gracefully on Ctrl-C/SIGTERM."""
    import signal as _signal
    import threading

    from repro.service import ShardRouter, ShardSupervisor

    supervisor = ShardSupervisor(
        args.store, shards=args.shards, workers=args.workers, worker=args.worker
    )
    endpoints = supervisor.start_all()
    router = ShardRouter(endpoints)
    for shard_id in sorted(endpoints):
        host, port = endpoints[shard_id]
        print(f"{shard_id}: {host}:{port} (store {supervisor.store_of(shard_id)})")
    for source in args.deploy:
        result = router.deploy(_resolve_schema(source).to_dict())
        print(f"deployed {result['type_id']!r} on {args.shards} shard(s)")
    stop = threading.Event()
    _signal.signal(_signal.SIGINT, lambda *_: stop.set())
    _signal.signal(_signal.SIGTERM, lambda *_: stop.set())
    print(f"serving {args.shards} shard(s); Ctrl-C drains and checkpoints")
    stop.wait()
    print("draining...")
    router.close()
    supervisor.stop()
    print("all shards checkpointed and stopped")
    return 0


def _cmd_shard_status(args: argparse.Namespace) -> int:
    """Print the per-shard status + aggregated telemetry of a fleet."""
    from repro.service import ShardRouter

    endpoints = _discover_fleet(args.store)
    if not endpoints:
        print(f"no shard endpoints found under {args.store!r}", file=sys.stderr)
        return 1
    router = ShardRouter(endpoints)
    try:
        status = router.status()
    finally:
        router.close()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    for shard_id in sorted(status["shards"]):
        shard = status["shards"][shard_id]
        journal = shard["journal"]
        print(
            f"{shard_id}: pid={shard['pid']} {shard['host']}:{shard['port']} "
            f"live={shard['live_instances']} stored={shard['stored_instances']} "
            f"types={','.join(shard['types']) or '-'} journal="
            + (f"{journal['records']} records/{journal['flushes']} flushes" if journal else "-")
        )
    telemetry = status["telemetry"]
    print(
        f"fleet: handovers={telemetry.get('handover', 0)} "
        f"change_propagation={telemetry.get('change_propagation', 0)} "
        f"migrations={telemetry.get('migration', 0)} "
        f"data_transfer={telemetry.get('data_transfer', 0)}B "
        f"requests={telemetry.get('requests', 0)} steps={telemetry.get('steps', 0)}"
    )
    return 0


def _cmd_demo_fig1(args: argparse.Namespace) -> int:
    scenario = paper_fig1_system()
    print(scenario.type_change.describe())
    print()
    report = scenario.migrate()
    print(render_migration_report(report))
    return 0


def _cmd_demo_fig3(args: argparse.Namespace) -> int:
    system, orders, cases = paper_fig3_system(
        instance_count=args.instances,
        biased_fraction=args.biased_fraction,
        seed=args.seed,
    )
    print("population before the type change:")
    print(system.statistics().summary())
    print()
    report = orders.evolve(
        order_type_change_v2(), migrate="rollback" if args.rollback else "compliant"
    )
    print(report.summary())
    if report.duration_seconds:
        print(f"throughput: {report.total / report.duration_seconds:.0f} instances/second")
    return 0


# --------------------------------------------------------------------------- #
# the ``run`` scenario driver
# --------------------------------------------------------------------------- #


def _run_lifecycle(args: argparse.Namespace) -> Dict[str, Any]:
    """Deploy a template, execute N cases, report stats and event counts."""
    schema = _resolve_schema(args.schema)
    system = _with_engine_feed(_make_system(args))
    process_type = _deploy_or_reuse(system, schema)
    completed = 0
    pool_stats: Optional[Dict[str, Any]] = None
    if args.workers > 1:
        cases = [process_type.start() for _ in range(args.instances)]
        system.serve(workers=args.workers)
        drained = system.drain()
        pool_stats = {
            "workers": drained.workers,
            "items_completed": drained.items_completed,
            "stale_claims": drained.stale_claims,
        }
        # count genuine completions, exactly like the sequential path's
        # result.ok (aborted/failed terminal states are not completions)
        completed = sum(1 for case in cases if case.status.value == "completed")
    else:
        for _ in range(args.instances):
            case = process_type.start()
            result = case.run()
            completed += int(result.ok)
    stats = system.statistics()
    system.close()
    payload = {
        "scenario": "lifecycle",
        "type": process_type.type_id,
        "instances": args.instances,
        "completed": completed,
        "statistics": stats.to_dict(),
        "events": system.feed.counts(),
    }
    if pool_stats is not None:
        payload["pool"] = pool_stats
    return payload


def _run_fig1(args: argparse.Namespace) -> Dict[str, Any]:
    scenario = paper_fig1_system(_with_engine_feed(AdeptSystem()))
    report = scenario.migrate()
    return {
        "scenario": "fig1",
        "report": report.to_dict(),
        "events": scenario.system.feed.category_counts(),
    }


def _run_fig3(args: argparse.Namespace) -> Dict[str, Any]:
    system, orders, cases = paper_fig3_system(
        instance_count=args.instances, seed=args.seed, system=_with_engine_feed(AdeptSystem())
    )
    report = orders.evolve(order_type_change_v2())
    return {
        "scenario": "fig3",
        "report": report.to_dict(),
        "events": system.feed.category_counts(),
    }


def _run_rollout(args: argparse.Namespace) -> Dict[str, Any]:
    """Evolve the order process lazily: cases adopt V2 on touch, a sweep drains the rest."""
    system, orders, cases = paper_fig3_system(
        instance_count=args.instances, seed=args.seed
    )
    rollout = orders.evolve(order_type_change_v2(), rollout="lazy")
    # touch half the population (each case adopts — or conflicts — here)
    for case in cases[: len(cases) // 2]:
        system.step_many([case.instance_id], steps=1)
    touched = rollout.progress()
    while system.rollout_of(orders.type_id) is not None:
        if system.sweep_rollout(orders.type_id, max_cases=64) == 0:
            break
    return {
        "scenario": "rollout",
        "touched": touched,
        "final": system.rollout_status(orders.type_id),
        "events": system.feed.rollout_summary(),
    }


_RUN_SCENARIOS = {
    "lifecycle": _run_lifecycle,
    "fig1": _run_fig1,
    "fig3": _run_fig3,
    "rollout": _run_rollout,
}


def _cmd_run(args: argparse.Namespace) -> int:
    payload = _RUN_SCENARIOS[args.scenario](args)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"scenario: {payload['scenario']}")
    report = payload.get("report")
    if report is not None:
        print(
            f"migration {report['process_type']} "
            f"v{report['from_version']} -> v{report['to_version']}"
        )
        for outcome, count in sorted(report["outcomes"].items()):
            if count:
                print(f"  {outcome:<24} {count}")
    else:
        print(f"type: {payload['type']}")
        print(f"completed: {payload['completed']}/{payload['instances']}")
    print("events:")
    for name, count in sorted(payload["events"].items()):
        print(f"  {name:<28} {count}")
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adept2-repro",
        description="Adaptive process management with ADEPT2 (reproduction) — command line interface",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("templates", help="list the bundled process templates")
    sub.set_defaults(handler=_cmd_templates)

    sub = subparsers.add_parser("verify", help="verify a schema (template name or JSON file)")
    sub.add_argument("schema", help="template name or path to a schema JSON file")
    sub.add_argument("--soundness", action="store_true", help="also run the soundness exploration")
    sub.set_defaults(handler=_cmd_verify)

    sub = subparsers.add_parser("render", help="render a schema as ASCII or Graphviz DOT")
    sub.add_argument("schema", help="template name or path to a schema JSON file")
    sub.add_argument("--format", choices=("ascii", "dot"), default="ascii")
    sub.set_defaults(handler=_cmd_render)

    sub = subparsers.add_parser("simulate", help="execute instances of a schema to completion")
    sub.add_argument("schema", help="template name or path to a schema JSON file")
    sub.add_argument("--instances", type=int, default=5)
    sub.add_argument("--show-history", action="store_true", help="print the history of the first instance")
    sub.add_argument("--store", metavar="PATH",
                     help="durable store directory (state survives across invocations)")
    sub.add_argument("--workers", type=int, default=1,
                     help="drive the cases with N concurrent worker threads "
                          "(system.serve/drain) instead of sequentially")
    sub.set_defaults(handler=_cmd_simulate)

    sub = subparsers.add_parser(
        "run", help="drive a scenario through the AdeptSystem façade"
    )
    sub.add_argument("scenario", choices=sorted(_RUN_SCENARIOS))
    sub.add_argument("--schema", default="online_order",
                     help="template name or schema JSON file (lifecycle scenario)")
    sub.add_argument("--instances", type=int, default=25)
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--store", metavar="PATH",
                     help="durable store directory (lifecycle scenario; state survives "
                          "across invocations)")
    sub.add_argument("--workers", type=int, default=1,
                     help="lifecycle scenario: drive the cases with N concurrent "
                          "worker threads (system.serve/drain)")
    sub.set_defaults(handler=_cmd_run)

    sub = subparsers.add_parser(
        "recover",
        help="open a durable store, report what crash recovery replayed",
    )
    sub.add_argument("store", metavar="PATH", help="durable store directory")
    sub.add_argument("--checkpoint", action="store_true",
                     help="write a fresh snapshot and truncate the write-ahead log")
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.set_defaults(handler=_cmd_recover)

    sub = subparsers.add_parser(
        "serve",
        help="run a sharded multi-process service tier over one base store",
    )
    sub.add_argument("--shards", type=int, default=2, help="number of shard processes")
    sub.add_argument("--store", metavar="DIR", required=True,
                     help="base store directory (one subdirectory per shard)")
    sub.add_argument("--workers", type=int, default=0,
                     help="worker pool threads per shard (0 = none)")
    sub.add_argument("--worker", default="",
                     help="worker spec for the pools (e.g. simulated_latency:0.002)")
    sub.add_argument("--deploy", metavar="SCHEMA", action="append", default=[],
                     help="template name or schema JSON to broadcast-deploy on startup "
                          "(repeatable)")
    sub.set_defaults(handler=_cmd_serve)

    sub = subparsers.add_parser(
        "shard-status", help="query a running shard fleet spawned by 'serve'"
    )
    sub.add_argument("--store", metavar="DIR", required=True,
                     help="the base store directory given to 'serve'")
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.set_defaults(handler=_cmd_shard_status)

    sub = subparsers.add_parser("demo-fig1", help="rerun the paper's Fig. 1 migration example")
    sub.set_defaults(handler=_cmd_demo_fig1)

    sub = subparsers.add_parser("demo-fig3", help="evolve the order process against a running population")
    sub.add_argument("--instances", type=int, default=500)
    sub.add_argument("--biased-fraction", type=float, default=0.1)
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument(
        "--rollback",
        action="store_true",
        help="evolve with migrate='rollback': compensate blocking activities (A6 policy)",
    )
    sub.set_defaults(handler=_cmd_demo_fig3)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the ``adept2-repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
