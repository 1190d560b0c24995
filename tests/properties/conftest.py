"""Isolation fixtures for the property-based suites.

Hypothesis shrinks and replays examples across test invocations; any
module-level mutable state that leaks between examples makes failures
irreproducible (a shrunk example behaves differently than the original
because a *previous* example warmed a cache).  This fixture resets the
one shared cache before every property test: the bounded LRU of
:func:`repro.runtime.expressions.compile_expression` (the expression-AST
cache introduced with the compiled SchemaIndex).
"""

from __future__ import annotations

import pytest

from repro.runtime.expressions import compile_expression


@pytest.fixture(autouse=True)
def _isolate_shared_module_state():
    """Every property test starts from a cold expression cache."""
    compile_expression.cache_clear()
