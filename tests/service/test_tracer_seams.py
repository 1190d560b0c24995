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


#: owners of the evolution hooks: the façade's delegates, the rollout's
#: books, the migration manager and its plan
EVOLUTION_OWNERS = ("AdeptSystem.", "Rollout.", "MigrationManager.", "MigrationPlan.")


def test_no_evolution_hook_is_missing_but_the_known_stale_one(tracer):
    missing = [hook for hook in tracer.missing_hooks if hook.startswith(EVOLUTION_OWNERS)]
    assert missing == ["MigrationManager.migrate_on_touch"]


def test_a_touch_and_a_sweep_reach_the_traced_facade_hooks(tracer):
    from repro import AdeptSystem
    from repro.core.operations import DeleteActivity
    from repro.schema import templates

    system = AdeptSystem()
    sequence = system.deploy(templates.sequential_process())
    touched, swept = sequence.start().instance_id, sequence.start().instance_id
    sequence.evolve([DeleteActivity(activity_id="step_2")], rollout="lazy")
    system.activated(touched)
    system.sweep_rollout(sequence.type_id)

    assert system.get_instance(touched).schema_version == 2
    assert system.get_instance(swept).schema_version == 2
    spans = [tracer.names[span[0]] for span in tracer.spans]
    assert spans.count("system.rollout:touch_for_rollout") == 1
    assert spans.count("system.rollout:sweep_rollout") == 1
