"""The stored text of an append-only log: history rows, data writes.

A stored case keeps each of its two logs as one compact JSON text — no
whitespace, sorted keys, so equal rows give equal text whatever order
their dicts were built in.  Nothing reads the logs while a case steps,
so a hydrated case keeps the text as it was read, and a write-back
encodes only the rows appended since and splices them onto it.
:func:`decode` is the one place a stored log is parsed.
"""

from __future__ import annotations

import json
from json import encoder as _json_encoder
from typing import Any, Sequence

_encoder = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
# A write-back encodes a few rows per log, so the per-call set-up of
# ``JSONEncoder.encode`` is a third of the cost: keep the C encoder it
# builds (same output) when the interpreter has one.
_c_encoder = (
    None
    if _json_encoder.c_make_encoder is None
    else _json_encoder.c_make_encoder(
        None, _encoder.default, _json_encoder.encode_basestring_ascii, None,
        ":", ",", True, False, True,
    )
)


def encode(rows: Sequence[Any]) -> str:
    """The stored text of a list of rows."""
    if _c_encoder is None:
        return _encoder.encode(rows)
    return "".join(_c_encoder(rows, 0))


def decode(text: str) -> list:
    """The rows of a stored text."""
    return json.loads(text)


def splice(prefix: str, tail: str) -> str:
    """The stored text of ``prefix``'s rows followed by ``tail``'s."""
    if prefix == "[]":
        return tail
    if tail == "[]":
        return prefix
    return prefix[:-1] + "," + tail[1:]
