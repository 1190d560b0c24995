"""JSON for the hot paths, with each dialect's C encoder built once.

``json.dumps`` builds a new encoder on every call — a
:class:`json.JSONEncoder` when any argument is given, and a C encoder
in every case — which for a wire frame or a WAL line costs more than
the encoding itself.  This module keeps one prebuilt C
encoder per dialect the program writes on its hot paths:

* compact — wire frames (``separators=(",", ":")``);
* compact and sorted — the stored history and data logs, WAL lines;
* sorted — instance fingerprints (``sort_keys=True``);
* plain — the step-outputs validator (no arguments).

:func:`dumps` takes ``json.dumps``'s arguments for these dialects, so a
call site reads like the stdlib call it replaces (the service protocol
imports this module *as* ``json``); its output is byte for byte
``json.dumps``'s with the same arguments, and any other combination is
handed to ``json.dumps`` itself.  Without the C encoder every call is
``json.dumps``.
"""

from __future__ import annotations

import json
from json import encoder as _encoder
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["COMPACT", "dumps", "loads", "JSONDecodeError"]

loads = json.loads
JSONDecodeError = json.JSONDecodeError

#: the separators of the compact dialects
COMPACT = (",", ":")


def _prebuilt(**options: Any) -> Callable[[Any], str]:
    """A function equal to ``json.dumps(value, **options)``."""
    if _encoder.c_make_encoder is None:
        return lambda value: json.dumps(value, **options)
    reference = json.JSONEncoder(**options)
    # markers=None: a shared circular-reference table would see another
    # thread's objects (and keeps entries after a failed call), so a
    # cycle recurses until RecursionError, and json.dumps reports it
    encode = _encoder.c_make_encoder(
        None,
        reference.default,
        _encoder.encode_basestring_ascii,
        None,
        reference.key_separator,
        reference.item_separator,
        reference.sort_keys,
        reference.skipkeys,
        reference.allow_nan,
    )

    def dumps(value: Any) -> str:
        try:
            return "".join(encode(value, 0))
        except RecursionError:
            # a cycle (json.dumps raises ValueError) or nesting too deep
            # for either encoder (json.dumps raises RecursionError again)
            return json.dumps(value, **options)

    return dumps


_DIALECTS: Dict[Tuple[Optional[Tuple[str, str]], bool], Callable[[Any], str]] = {
    (None, False): _prebuilt(),
    (None, True): _prebuilt(sort_keys=True),
    (COMPACT, False): _prebuilt(separators=COMPACT),
    (COMPACT, True): _prebuilt(separators=COMPACT, sort_keys=True),
}


def dumps(
    value: Any, *, separators: Optional[Tuple[str, str]] = None, sort_keys: bool = False
) -> str:
    """``json.dumps(value, separators=..., sort_keys=...)``, byte for byte."""
    encode = _DIALECTS.get((separators, sort_keys))
    if encode is None:
        return json.dumps(value, separators=separators, sort_keys=sort_keys)
    return encode(value)
