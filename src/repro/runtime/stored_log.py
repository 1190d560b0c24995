"""The stored text of an append-only log: history rows, data writes.

A stored case keeps each of its two logs as one compact JSON text — no
whitespace, sorted keys, so equal rows give equal text whatever order
their dicts were built in.  Nothing reads the logs while a case steps,
so a hydrated case keeps the text as it was read, and a write-back
encodes only the rows appended since and splices them onto it.  A
write-back encodes a few rows per log, so the encoder's set-up would
be a third of the cost: :func:`encode` uses the prebuilt compact,
sorted encoder of :mod:`repro.json_codec`.  :func:`decode` is the one
place a stored log is parsed.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro import json_codec


def encode(rows: Sequence[Any]) -> str:
    """The stored text of a list of rows."""
    return json_codec.dumps(rows, separators=json_codec.COMPACT, sort_keys=True)


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
