"""The op table in ``docs/architecture.md`` is rendered from the shard server.

An op is a ``ShardServer._op_<name>`` method and its keyword parameters
are the request's fields, so the table can be derived and compared: a
handler that gains, loses or renames a field fails this test until the
doc's table is replaced with the one in the failure message.
"""

import inspect
from pathlib import Path

from repro.service import ShardServer

ROOT = Path(__file__).resolve().parents[2]
PREFIX = "_op_"


def _field(parameter: inspect.Parameter) -> str:
    if parameter.default is inspect.Parameter.empty:
        return f"`{parameter.name}`"
    return f"`{parameter.name}={parameter.default!r}`"


def render_op_table() -> str:
    rows = ["| op | fields |", "| --- | --- |"]
    for name in sorted(n for n in dir(ShardServer) if n.startswith(PREFIX)):
        parameters = list(inspect.signature(getattr(ShardServer, name)).parameters.values())[1:]
        fields = ", ".join(_field(parameter) for parameter in parameters) or "—"
        rows.append(f"| `{name[len(PREFIX):]}` | {fields} |")
    return "\n".join(rows) + "\n"


def test_the_wire_op_table_matches_the_handlers():
    doc = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    table = render_op_table()
    assert table in doc, "docs/architecture.md's op table is stale; replace it with:\n" + table


def test_every_field_is_keyword_only():
    """Requests bind by name: no handler may take a field positionally."""
    for name in (n for n in dir(ShardServer) if n.startswith(PREFIX)):
        parameters = list(inspect.signature(getattr(ShardServer, name)).parameters.values())[1:]
        assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in parameters), name
