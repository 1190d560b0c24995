"""Equal-work blocks, quiet-half statistics and host probes.

The measured phase of every workload is a fixed, seeded sequence of
operations cut into blocks of equal work.  Two things move a block's
time on a shared host, and each has its own remedy:

* *bursts* — interference only ever slows a block, so the half of the
  blocks with the lowest time per unit of work (the quiet half)
  estimates the program's own speed while still averaging dozens of
  blocks;
* *the host's speed itself* — on this host the same code runs 5–10 %
  faster or slower from one run to the next and 1.7x slower for up to
  40 s at a stretch, and a fixed pure-Python JSON loop run between the
  blocks follows it within ±2 %.  Times are therefore reported *at
  reference speed*: each block's times are scaled by
  ``REFERENCE_CALIB_MS / (the loop's reading around that block)``.

The raw numbers, the all-block mean, the p99, the calibration reading
and the share of disturbed blocks travel with every result.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence

_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")

#: Times are reported for a host on which :func:`calibrate` takes this long.
REFERENCE_CALIB_MS = 8.0

#: A block counts as disturbed when its time per unit of work exceeds
#: the quiet half's median by this factor.
DISTURBED_FACTOR = 1.15

_CALIBRATION_DOCUMENT = {
    "kind": "step",
    "instance_id": "calibration-000001",
    "outputs": {"order": {"sku": "A-1042", "quantity": 3, "notes": "x" * 40}},
    "values": list(range(24)),
}
_CALIBRATION_ROUNDS = 700


def calibrate() -> float:
    """Milliseconds a fixed pure-Python JSON loop takes right now (≈ 10 ms).

    Run between blocks: the readings around a block say how fast the
    host was while it ran.
    """
    started = time.perf_counter()
    for _ in range(_CALIBRATION_ROUNDS):
        json.loads(json.dumps(_CALIBRATION_DOCUMENT, sort_keys=True))
    return (time.perf_counter() - started) * 1e3


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU a process (all its threads) has used so far."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # the command name may contain spaces; fields count from after ")"
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def tree_bytes(directory: str) -> int:
    """Total size of the regular files under ``directory``."""
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except FileNotFoundError:  # a temporary replaced mid-walk
                pass
    return total


def host_speed_scales(readings: Sequence[float], count: int) -> List[float]:
    """Per interval ``i`` (between readings ``i`` and ``i + 1``) the factor
    that converts its times to reference speed.

    The host's reading for an interval is the median of the four readings
    nearest to it, so one reading that caught a burst neither over-corrects
    its block nor steers the quiet-half choice.
    """
    assert len(readings) == count + 1
    return [
        REFERENCE_CALIB_MS / median(readings[max(0, index - 1) : index + 3])
        for index in range(count)
    ]


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Block:
    """What one block of equal work cost."""

    __slots__ = ("wall", "cpu", "work", "latencies", "scale")

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.work = 0
        self.latencies: List[float] = []
        #: reference speed / host speed while the block ran
        self.scale = 1.0

    @property
    def cost(self) -> float:
        """Reference-speed seconds per unit of work — the quiet half's ranking."""
        return self.wall * self.scale / self.work


class Recorder:
    """Collects blocks; wall and CPU accrue only inside :meth:`timed`.

    ``child_pids`` are the shard processes whose CPU belongs to the
    workload next to the harness's own.
    """

    def __init__(self, child_pids: Iterable[int] = (), tracer: Any = None) -> None:
        self.child_pids = list(child_pids)
        self.tracer = tracer
        self.blocks: List[Block] = []
        #: calibration readings: one before each block, one after the last
        self.readings: List[float] = []
        self.requests = 0

    def _cpu_now(self) -> float:
        return time.process_time() + sum(
            process_cpu_seconds(pid) for pid in self.child_pids
        )

    @contextmanager
    def block(self) -> Iterator[Block]:
        self.readings.append(calibrate())
        block = Block()
        self.blocks.append(block)
        yield block

    def close(self) -> None:
        """Take the closing reading and give every block its speed factor."""
        self.readings.append(calibrate())
        for block, scale in zip(self.blocks, host_speed_scales(self.readings, len(self.blocks))):
            block.scale = scale

    @contextmanager
    def timed(self) -> Iterator[None]:
        block = self.blocks[-1]
        cpu_started = self._cpu_now()
        started = time.perf_counter()
        try:
            yield
        finally:
            block.wall += time.perf_counter() - started
            block.cpu += self._cpu_now() - cpu_started

    def request(
        self, call: Callable[..., Any], *args: Any, latency: bool = True, **kwargs: Any
    ) -> Any:
        """Run one request; ``latency=False`` keeps it out of the latency pool.

        With a tracer attached the call runs inside a request span, so
        every layer span below it carries the request's id.
        """
        self.requests += 1
        started = time.perf_counter()
        if self.tracer is None:
            result = call(*args, **kwargs)
        else:
            with self.tracer.request():
                result = call(*args, **kwargs)
        if latency:
            self.blocks[-1].latencies.append(time.perf_counter() - started)
        return result


def summarise(recorder: Recorder) -> Dict[str, Dict[str, float]]:
    """Quiet-half metrics at reference speed, plus what says how noisy the run was."""
    blocks = recorder.blocks
    ranked = sorted(blocks, key=lambda block: block.cost)
    quiet = ranked[: max(1, len(ranked) // 2)]
    quiet_work = sum(block.work for block in quiet)
    quiet_latencies = sorted(x * block.scale for block in quiet for x in block.latencies)
    raw_latencies = sorted(x for block in blocks for x in block.latencies)
    quiet_cost = median(block.cost for block in quiet)
    costs = [block.cost for block in ranked]
    metrics = {
        "work_per_s": quiet_work / sum(block.wall * block.scale for block in quiet),
        "p50_ms": percentile(quiet_latencies, 0.50) * 1e3,
        "p90_ms": percentile(quiet_latencies, 0.90) * 1e3,
        "cpu_us_per_work": sum(block.cpu * block.scale for block in quiet) / quiet_work * 1e6,
    }
    diagnostics = {
        "host.calib_ms": median(REFERENCE_CALIB_MS / block.scale for block in quiet),
        "host.disturbed_block_frac": sum(
            cost > DISTURBED_FACTOR * quiet_cost for cost in costs
        )
        / len(costs),
        "host.block_spread_frac": (
            percentile(costs, 0.75) - percentile(costs, 0.25)
        )
        / median(costs),
        "client.p99_ms": percentile(raw_latencies, 0.99) * 1e3,
        "client.mean_work_per_s": sum(block.work for block in blocks)
        / sum(block.wall for block in blocks),
        "raw.quiet_work_per_s": quiet_work / sum(block.wall for block in quiet),
        "raw.p50_ms": percentile(raw_latencies, 0.50) * 1e3,
        "raw.p90_ms": percentile(raw_latencies, 0.90) * 1e3,
        "blocks": len(blocks),
        "quiet_latency_samples": len(quiet_latencies),
        # in time order, for a look at drift and bursts
        "block_cost_us": [round(block.cost * 1e6, 3) for block in blocks],
    }
    return {"metrics": metrics, "diagnostics": diagnostics}
