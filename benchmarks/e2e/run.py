"""The repo's end-to-end benchmark: one command per workload.

    python3 benchmarks/e2e/run.py --workload desk --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the seven end-to-end metrics against the real
topology (a shard process for ``desk``/``crowd``); ``--trace 1`` runs a
quarter of the operations with the system inside this process, once
bare and once with a span around every layer boundary, and prints the
per-layer table.  End-to-end numbers never come from a traced run.

The last line of stdout is one JSON object with exactly ``correct``,
``attempted``, ``failed`` and ``metrics``; everything else (digest,
diagnostics, failures) goes to ``benchmarks/e2e/out/`` and stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

from measure import Recorder, calibrate, host_speed_scales, peak_rss_mb, summarise, tree_bytes
from sandbox import HERE, OUT_DIR, REPO_ROOT, Sandbox

#: blocks of equal work in one measured phase
BLOCKS = 80
#: cold starts whose median is ``setup_s``
COLD_STARTS = 5
#: share of the full operation count a traced phase runs
TRACED_SHARE = 0.25


_ADDR_NO_RANDOMIZE = 0x0040000
_REEXEC_MARK = "ADEPT_E2E_PINNED"


def _pin_process_layout() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` and address randomisation off.

    Set iteration order is part of the input, for sets of strings (hash
    seed) and of plain objects (hashed by address) alike.  The address
    layout also decides whether the allocator can hand the snapshot
    load's garbage back to the OS: with randomisation on, ``batch``
    peaked at 107 or 127 MB from one run to the next.  Both settings
    are inherited by every child.
    """
    if os.environ.get(_REEXEC_MARK) != "1":
        os.environ[_REEXEC_MARK] = "1"
        os.environ["PYTHONHASHSEED"] = "0"
        libc = ctypes.CDLL(None)
        libc.personality(libc.personality(0xFFFFFFFF) | _ADDR_NO_RANDOMIZE)
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _pin_to_one_cpu() -> None:
    """Run the harness and every child on one vCPU.

    The loop is closed with one client, so client and server are never
    runnable at once and one CPU loses nothing.  Across two, each
    request idles a vCPU twice, and what waking an idle vCPU costs is
    the hypervisor's to decide: on this host it went from nothing to
    ~100 us for a quarter of an hour, halved ``desk``, and left the
    calibration loop (which never sleeps) unmoved.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_program() -> None:
    """Put this checkout's ``src`` first; refuse any other ``repro``."""
    source = REPO_ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"the program is not in this checkout ({source}): {exc}")
    if not str(Path(repro.__file__).resolve()).startswith(str(source)):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {source}")


def _digest(states: Dict[str, str]) -> str:
    payload = json.dumps(sorted(states.items())).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def run_phase(
    workload: Any,
    sandbox: Any,
    store: str,
    meta: Dict[str, Any],
    seed: int,
    units_per_block: int,
    blocks: int,
    started: Any = None,
    tracer: Any = None,
) -> Dict[str, Any]:
    """One measured phase plus its end-of-run checks."""
    from workloads import exactly_once, journal_counts

    journal_before = journal_counts(store)
    session = workload.open(sandbox, store, meta, seed, units_per_block, started)
    recorder = Recorder(session.cpu_pids, tracer)
    probe = _LayerProbe(session, tracer) if tracer is not None else None
    disk_before = tree_bytes(store)
    gc.collect()
    for _ in range(blocks):
        with recorder.block() as block:
            session.run_block(recorder, block)
    recorder.close()
    disk_after = tree_bytes(store)
    rss = peak_rss_mb(session.rss_pid)
    work = sum(block.work for block in recorder.blocks)
    phase: Dict[str, Any] = summarise(recorder)
    if probe is not None:
        phase["layer_inputs"] = probe.finish()
    states = session.final_states()
    session.crash()
    # acked => journaled: the log on disk after a crash-stop holds exactly
    # the records the client was acknowledged
    journal_after = journal_counts(store)
    for key, count in sorted(session.acked.items(), key=repr):
        journaled = journal_after[key] - journal_before[key]
        if journaled != count:
            session.fail(f"{count} {key} acknowledged, {journaled} journaled")
    if workload.name == "evolve":
        for problem in exactly_once(store):
            session.fail(problem)
    phase["metrics"]["disk_bytes_per_work"] = (disk_after - disk_before) / work
    phase["metrics"]["peak_rss_mb"] = rss
    phase.update(
        work=work,
        attempted=recorder.requests,
        failed=session.failed,
        failures=session.failures,
        states=states,
        digest=_digest(states),
        cycle_log=getattr(session, "cycle_log", []),
    )
    return phase


class _LayerProbe:
    """Reads, around a traced phase, the counters the layers keep themselves."""

    def __init__(self, session: Any, tracer: Any) -> None:
        self.system = session.system()
        self.tracer = tracer
        wal = self.system.backend.wal
        self.before = (wal.append_count, wal.flush_count, wal.size_bytes())

    def finish(self) -> Dict[str, Any]:
        wal = self.system.backend.wal
        records = [record for _id, record in self.system.store.scan_records()][:300]
        return {
            # as of the end of the phase: the end-of-run checks still talk to the system
            "counters": dict(self.tracer.counters),
            "wal.records": wal.append_count - self.before[0],
            "wal.flushes": wal.flush_count - self.before[1],
            "wal.bytes": wal.size_bytes() - self.before[2],
            "worklist.items_total": len(self.system.worklists),
            "store.bytes_per_record": (
                sum(len(json.dumps(record)) for record in records) / len(records)
                if records
                else 0.0
            ),
        }


def _seed_store(args: argparse.Namespace, sandbox: Any, name: str) -> Any:
    """A freshly seeded store under the sandbox; returns ``(path, meta)``."""
    store = sandbox.path(name)
    os.makedirs(store)
    meta = sandbox.run_child(
        [str(HERE / "child.py"), "seed", args.workload, store, str(args.seed), str(args.scale)]
    )
    return store, meta


def full_run(args: argparse.Namespace, sandbox: Any) -> Dict[str, Any]:
    """``--trace 0``: seed, restart five times, measure, check."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    store, meta = _seed_store(args, sandbox, "store")
    setups: List[float] = []
    readings = [calibrate()]
    started = None
    for _ in range(args.cold_starts):
        if started is not None:
            workload.discard_cold_start(sandbox, started)
        elapsed, started = workload.cold_start(sandbox, store, meta)
        setups.append(elapsed)
        readings.append(calibrate())
    scales = host_speed_scales(readings, len(setups))
    units = workload.units_per_block(args.seconds, args.blocks)
    phase = run_phase(
        workload, sandbox, store, meta, args.seed, units, args.blocks, started=started
    )
    phase["metrics"]["setup_s"] = median(t * scale for t, scale in zip(setups, scales))
    phase["diagnostics"]["raw.setup_runs_s"] = setups
    phase["diagnostics"]["setup_calib_ms"] = readings
    return phase


def traced_run(args: argparse.Namespace, sandbox: Any) -> Dict[str, Any]:
    """``--trace 1``: same topology in-process, bare then traced, per-layer table."""
    from tracing import Tracer, codec_cost, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    bare_store, meta = _seed_store(args, sandbox, "store-bare")
    traced_store, restart_store = sandbox.path("store-traced"), sandbox.path("store-restart")
    shutil.copytree(bare_store, traced_store)
    shutil.copytree(bare_store, restart_store)
    # a quarter of the operations: smaller blocks, and fewer of them once a
    # block is down to one unit
    total = workload.units_per_block(args.seconds, args.blocks) * args.blocks * TRACED_SHARE
    units = max(1, round(total / args.blocks))
    blocks = max(8, min(args.blocks, round(total / units)))

    # what a restart costs, layer by layer (moves setup_s)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.request():
            system = workload.reopen(restart_store, meta)
        recovery = system.last_recovery
        with tracer.request():
            system.checkpoint()
        system.close(checkpoint=False)
    finally:
        tracer.uninstall()
    restart_rows = tracer.aggregate()

    # client and server share this interpreter: with the default 5 ms switch
    # interval the GIL hand-off between their threads would pose as socket time
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    tracer = Tracer()
    try:
        bare = run_phase(workload, sandbox, bare_store, meta, args.seed, units, blocks)
        tracer.install()
        traced = run_phase(
            workload, sandbox, traced_store, meta, args.seed, units, blocks, tracer=tracer
        )
    finally:
        tracer.uninstall()
        sys.setswitchinterval(switch_interval)
    tracer.dump(str(Path(args.out).with_suffix(".spans.ndjson")))

    # journaled => recovered: a twin opened from the crashed store agrees
    twin = workload.reopen(traced_store, meta)
    for case_id, fingerprint in traced["states"].items():
        if twin.get_instance(case_id).state_fingerprint() != fingerprint:
            traced["failed"] += 1
            traced["failures"].append(f"{case_id} recovered to a different state")
    twin.close(checkpoint=False)
    if bare["digest"] != traced["digest"]:
        traced["failed"] += 1
        traced["failures"].append("bare and traced phases of one seed ended differently")

    rows = tracer.aggregate()
    metrics = layer_metrics(
        rows, tracer, traced, bare, restart_rows, recovery, codec_cost(tracer.frames)
    )
    traced["failed"] += bare["failed"]
    traced["failures"] += bare["failures"]
    traced["attempted"] += bare["attempted"]
    traced["diagnostics"]["missing_hooks"] = tracer.missing_hooks
    traced["diagnostics"]["span_rows_us_per_work"] = {
        name: {"calls": row["calls"] / traced["work"],
               "self": row["self"] / traced["work"] * 1e6,
               "total": row["total"] / traced["work"] * 1e6}
        for name, row in sorted(rows.items())
    }
    traced["diagnostics"]["bare_metrics"] = bare["metrics"]
    traced["diagnostics"]["traced_metrics"] = traced["metrics"]
    traced["metrics"] = metrics
    return traced


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["desk", "crowd", "batch", "evolve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured phase at the seed commit")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # harness knobs for the smoke test; the benchmark proper uses the defaults
    parser.add_argument("--blocks", type=int, default=BLOCKS)
    parser.add_argument("--scale", type=float, default=1.0, help="population multiplier")
    parser.add_argument("--cold-starts", type=int, default=COLD_STARTS)
    parser.add_argument("--out", default=None, help="result file (default: under out/)")
    args = parser.parse_args(argv)

    _pin_process_layout()
    _pin_to_one_cpu()
    _import_program()

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    if args.out is None:
        args.out = str(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")

    with Sandbox() as sandbox:
        print(f"sandbox {sandbox.directory}", file=sys.stderr)
        result = traced_run(args, sandbox) if args.trace else full_run(args, sandbox)

    metrics = {
        entry["name"]: {"value": result["metrics"][entry["name"]], "unit": entry["unit"]}
        for entry in expected
    }
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, digest=result["digest"], work=result["work"],
                  diagnostics=result["diagnostics"], failures=result["failures"])
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True))
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"digest {result['digest']}  diagnostics "
          f"{json.dumps({k: v for k, v in result['diagnostics'].items() if '.' in k})}",
          file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
