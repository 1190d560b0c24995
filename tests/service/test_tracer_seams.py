"""The traced benchmark still finds every service-tier seam it patches.

``benchmarks/e2e/tracing.py`` measures layers by patching, from outside
``src/``, the functions through which one layer calls the next, and it
times the wire codec by replacing the protocol module's ``json``
attribute.  A refactor that renames a hook or stops calling the codec
through that attribute would silently empty a row of the per-layer
table; this pins the seams of the request path.
"""

import importlib.util
import socket
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"

#: owners of the request-path hooks: router, hash ring, protocol, shard server, WAL
REQUEST_PATH_OWNERS = (
    "ShardRouter.",
    "ShardClient.",
    "HashRing.",
    "repro.service.protocol",
    "repro.service.router",
    "repro.service.shard_server",
    "ShardServer.",
    "WriteAheadLog.",
)


@pytest.fixture()
def tracer():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    installed = tracing.Tracer()
    installed.install()
    try:
        yield installed
    finally:
        installed.uninstall()


def test_a_frame_is_encoded_and_decoded_through_the_traced_codec(tracer):
    from repro.service.protocol import recv_message, send_message

    left, right = socket.socketpair()
    try:
        sent = send_message(left, {"op": "ping", "ids": ["a", "é"]})
        payload, received = recv_message(right)
    finally:
        left.close()
        right.close()

    assert payload == {"op": "ping", "ids": ["a", "é"]}
    assert sent == received
    spans = [tracer.names[span[0]] for span in tracer.spans]
    assert spans == ["service.protocol:encode", "service.protocol:decode"]


def test_no_request_path_hook_is_missing(tracer):
    missing = [
        hook for hook in tracer.missing_hooks if hook.startswith(REQUEST_PATH_OWNERS)
    ]
    assert missing == []
