"""The typed exception hierarchy: every library error derives from ReproError."""

import pytest

import repro
from repro import ReproError


class TestHierarchy:
    def test_base_exported_from_top_level(self):
        assert issubclass(repro.ReproError, Exception)
        assert issubclass(repro.MigrationError, repro.ReproError)

    @pytest.mark.parametrize(
        "name",
        ["SchemaError", "EngineError", "OperationError", "AdHocChangeError", "MigrationError"],
    )
    def test_documented_subclasses(self, name):
        assert issubclass(getattr(repro, name), ReproError)

    def test_all_component_errors_share_the_base(self):
        from repro.core.evolution import EvolutionError
        from repro.core.rollback import RollbackError
        from repro.paper.distributed.partitioning import PartitioningError
        from repro.org.authorization import AuthorizationError
        from repro.runtime.expressions import ExpressionError
        from repro.schema.blocks import BlockStructureError
        from repro.schema.builder import BuilderError
        from repro.storage.instance_store import StorageError

        for error in (
            EvolutionError,
            RollbackError,
            PartitioningError,
            AuthorizationError,
            ExpressionError,
            BlockStructureError,
            BuilderError,
            StorageError,
        ):
            assert issubclass(error, ReproError), error

    def test_one_except_clause_covers_the_facade(self):
        """A single `except ReproError` catches schema, engine and change errors."""
        from repro import AdeptSystem
        from repro.schema import templates

        system = AdeptSystem()
        orders = system.deploy(templates.online_order_process())
        case = orders.start()

        caught = []
        for action in (
            lambda: system.instance("missing"),                    # EngineError
            lambda: system.type("missing"),                        # EvolutionError
            lambda: case.change().delete("no_such_node").apply(),  # AdHocChangeError
            lambda: case.complete("deliver_goods"),                # EngineError (not activated)
        ):
            try:
                action()
            except ReproError as error:
                caught.append(type(error).__name__)
        assert len(caught) == 4
