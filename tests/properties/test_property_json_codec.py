"""The prebuilt encoders write exactly what ``json.dumps`` writes.

:mod:`repro.json_codec` replaces ``json.dumps`` on the hot paths — wire
frames, WAL lines, stored logs, fingerprints and the step-outputs
validator — with C encoders built once.  Old logs must replay and old
digests must hold, so the oracle is byte identity: for every drawn JSON
value and every dialect, the codec's text is ``json.dumps``'s with the
same arguments, and a durable run's ``wal.jsonl`` is what the stdlib
encoder writes, in the compact sorted dialect, for the same records
less their ``None``-valued fields.
"""

import json
import math
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdeptSystem, json_codec
from repro.schema.templates import online_order_process
from repro.service.protocol import send_message
from repro.storage.wal import WriteAheadLog

#: the dialects the hot paths write, as ``json.dumps`` keyword arguments
DIALECTS = [
    {},
    {"sort_keys": True},
    {"separators": (",", ":")},
    {"separators": (",", ":"), "sort_keys": True},
]

# strings that need escaping: quotes, backslashes, control characters,
# non-ASCII (one- and two-unit UTF-16) and lone surrogates
text = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=0x10FFFF), max_size=8
) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é", "€𝄞", "\ud800", " "])
numbers = (
    st.integers()
    | st.integers(min_value=2**64, max_value=2**80)
    | st.integers(min_value=-(2**80), max_value=-(2**64))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf])
)
scalars = st.none() | st.booleans() | numbers | text
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(text, children, max_size=4),
    max_leaves=20,
)


@pytest.mark.parametrize("dialect", DIALECTS, ids=lambda d: ",".join(d) or "plain")
@settings(max_examples=300, deadline=None)
@given(value=json_values)
def test_every_dialect_writes_json_dumps_bytes(dialect, value):
    assert json_codec.dumps(value, **dialect) == json.dumps(value, **dialect)


@settings(max_examples=100, deadline=None)
@given(value=json_values)
def test_a_wire_frame_is_the_compact_json_dumps_body(value):
    left, right = socket.socketpair()
    try:
        sent = send_message(left, value)
        frame = right.recv(sent, socket.MSG_WAITALL)
    finally:
        left.close()
        right.close()
    body = json.dumps(value, separators=(",", ":")).encode("utf-8")
    assert frame == struct.pack(">Q", len(body)) + body


@given(key=st.sampled_from([1, 1.5, True, None]))
def test_non_string_keys_and_unknown_dialects_match_too(key):
    value = {key: [1, {"b": 2, "a": 1}, ()]}
    for dialect in DIALECTS:
        assert json_codec.dumps(value, **dialect) == json.dumps(value, **dialect)
    odd = {"separators": (", ", ":"), "sort_keys": True}
    assert json_codec.dumps(value, **odd) == json.dumps(value, **odd)


@pytest.mark.parametrize("dialect", DIALECTS, ids=lambda d: ",".join(d) or "plain")
def test_failures_raise_what_json_dumps_raises(dialect):
    cycle = []
    cycle.append(cycle)
    for bad, error in ((object(), TypeError), ({(1, 2): 3}, TypeError), (cycle, ValueError)):
        with pytest.raises(error):
            json.dumps(bad, **dialect)
        with pytest.raises(error):
            json_codec.dumps(bad, **dialect)
    # a failed call leaves nothing behind that the next one would see
    assert json_codec.dumps([1], **dialect) == json.dumps([1], **dialect)


def test_without_the_c_encoder_every_call_is_json_dumps(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    value = {"b": [1.5, "é", -0.0], "a": None}
    for dialect in DIALECTS:
        fallback = json_codec._prebuilt(**dialect)
        assert fallback(value) == json.dumps(value, **dialect)


def test_a_durable_runs_wal_is_what_the_stdlib_encoder_writes(tmp_path, monkeypatch):
    expected = []
    enqueue = WriteAheadLog.enqueue
    stdlib = json.JSONEncoder(separators=(",", ":"), sort_keys=True)

    def recording_enqueue(self, record):
        present = {name: value for name, value in record.items() if value is not None}
        expected.append(stdlib.encode(present) + "\n")
        return enqueue(self, record)

    monkeypatch.setattr(WriteAheadLog, "enqueue", recording_enqueue)
    system = AdeptSystem.open(tmp_path / "db")
    orders = system.deploy(online_order_process())
    ids = [
        orders.start(order={"sku": f"SKÜ-{n}€", "note": "tab\there", "weight": -0.0}).instance_id
        for n in range(4)
    ]
    system.step_many(ids, steps=2)
    system.step_many(ids[:2], steps=100)
    system.delete_instance(ids[3])
    system.close(checkpoint=False)

    written = (tmp_path / "db" / "wal.jsonl").read_bytes()
    assert len(expected) > 10
    assert written == "".join(expected).encode("utf-8")
