"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.runtime.engine import ProcessEngine
from repro.schema import templates
from repro.storage.repository import SchemaRepository
from repro.workloads.order_process import paper_fig1_scenario
from repro.workloads.schema_generator import RandomSchemaGenerator, SchemaGeneratorConfig


@pytest.fixture
def engine() -> ProcessEngine:
    """A fresh process engine."""
    return ProcessEngine()


@pytest.fixture
def engine_events(engine):
    """Every event the ``engine`` fixture reports, in order (its listener)."""
    events = []
    engine.event_listener = events.append
    return events


@pytest.fixture
def order_schema():
    """The paper's online order process (version 1)."""
    return templates.online_order_process()


@pytest.fixture
def treatment_schema():
    """The e-health patient treatment process (contains a loop and an XOR)."""
    return templates.patient_treatment_process()


@pytest.fixture
def credit_schema():
    """The credit application process (parallel block + XOR decision)."""
    return templates.credit_application_process()


@pytest.fixture
def loop_schema():
    """A simple looping process."""
    return templates.loop_process()


@pytest.fixture
def sequence_schema():
    """A purely sequential five-step process."""
    return templates.sequential_process()


@pytest.fixture(params=[name for name in (
    "online_order",
    "patient_treatment",
    "container_transport",
    "credit_application",
    "sequence",
    "loop_process",
)])
def any_template(request):
    """Each bundled template, one at a time."""
    factories = {
        "online_order": templates.online_order_process,
        "patient_treatment": templates.patient_treatment_process,
        "container_transport": templates.container_transport_process,
        "credit_application": templates.credit_application_process,
        "sequence": templates.sequential_process,
        "loop_process": templates.loop_process,
    }
    return factories[request.param]()


@pytest.fixture
def fig1():
    """The paper's Fig. 1 scenario (schema, ΔT, instances I1-I3)."""
    return paper_fig1_scenario()


@pytest.fixture
def order_repository(order_schema):
    """A schema repository with the online order type registered."""
    repository = SchemaRepository()
    repository.register_type(order_schema)
    return repository


@pytest.fixture
def small_random_schemas():
    """A handful of small random schemas (deterministic seed)."""
    generator = RandomSchemaGenerator(
        config=SchemaGeneratorConfig(target_activities=10), seed=5
    )
    return generator.generate_many(3, prefix="fixture")
