"""Temp stores and child processes that never outlive a run.

A leaked ``repro.service.shard_server`` would occupy one of this host's
two cores and poison every later run, so every child starts in its own
session, is registered here, and is killed (whole process group) on
every exit path — normal, exception, SIGINT or SIGTERM.  The run's temp
directory lives under ``benchmarks/e2e/out/`` (inside the checkout,
ignored by git) and goes away with the sandbox.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SOURCE_ROOT = REPO_ROOT / "src"
OUT_DIR = HERE / "out"


def child_environment() -> Dict[str, str]:
    """The environment every child runs in: pinned hash seed, this checkout's src.

    Bytecode caching is on whatever the caller's environment says: the
    seeding child thereby *builds* the program (writes ``__pycache__``
    in the checkout) and a cold start imports the way a deployed
    restart does, instead of recompiling every module.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SOURCE_ROOT)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Sandbox:
    """Owns one run's temp directory and every process started for it."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
        self._processes: List[subprocess.Popen] = []
        self._previous_handlers: Dict[int, Any] = {}

    def __enter__(self) -> "Sandbox":
        for signum in (signal.SIGINT, signal.SIGTERM):
            self._previous_handlers[signum] = signal.signal(signum, self._on_signal)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        try:
            self.kill_all()
            shutil.rmtree(self.directory, ignore_errors=True)
        finally:
            for signum, handler in self._previous_handlers.items():
                signal.signal(signum, handler)

    @staticmethod
    def _on_signal(signum: int, frame: object) -> None:
        # unwinds through __exit__, which kills the children
        raise SystemExit(128 + signum)

    def path(self, name: str) -> str:
        return str(self.directory / name)

    def spawn(self, arguments: Sequence[str], **popen_options: Any) -> subprocess.Popen:
        """Start ``python <arguments>`` as the leader of its own session."""
        process = subprocess.Popen(
            [sys.executable, *arguments],
            env=child_environment(),
            start_new_session=True,
            **popen_options,
        )
        self._processes.append(process)
        return process

    def run_child(self, arguments: Sequence[str]) -> Dict[str, Any]:
        """Run a child to completion; its last stdout line is a JSON object."""
        process = self.spawn(arguments, stdout=subprocess.PIPE, text=True)
        output, _ = process.communicate()
        if process.returncode != 0:
            raise RuntimeError(f"child {list(arguments)!r} exited with {process.returncode}")
        return json.loads(output.strip().splitlines()[-1])

    def kill(self, process: subprocess.Popen) -> None:
        """SIGKILL a child's whole session and reap it (the crash path)."""
        if process.poll() is None:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        process.wait(timeout=30.0)

    def kill_all(self) -> None:
        for process in self._processes:
            try:
                self.kill(process)
            except Exception:  # noqa: BLE001 - keep killing the others
                pass
        self._processes.clear()


def start_shard(
    sandbox: Sandbox, store: str, shard_id: str = "shard-00", timeout: float = 60.0
) -> Tuple[subprocess.Popen, Tuple[str, int]]:
    """One durable shard process over ``store``, ready to accept connections.

    The same command and ``endpoint.json`` handshake as
    ``ShardSupervisor.spawn``, with two differences the benchmark needs:
    the child leads its own session (so the sandbox can kill the group),
    and the endpoint file is polled every millisecond — the supervisor's
    20 ms poll would quantise a 300 ms restart-to-ready by 7 %.
    """
    from repro.service.shard_server import ENDPOINT_FILE

    endpoint_file = Path(store) / ENDPOINT_FILE
    if endpoint_file.exists():
        endpoint_file.unlink()
    with open(Path(store) / "server.log", "ab") as log:
        process = sandbox.spawn(
            ["-m", "repro.service.shard_server", "--shard-id", shard_id,
             "--store", store, "--port", "0"],
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            log_tail = (Path(store) / "server.log").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"shard exited with {process.returncode}:\n{log_tail}")
        try:
            payload = json.loads(endpoint_file.read_text())
            return process, (payload["host"], payload["port"])
        except (FileNotFoundError, json.JSONDecodeError):
            time.sleep(0.001)
    raise RuntimeError("shard did not publish an endpoint in time")
