"""The format-1 fixture's hand-spelled expectations, over the format-2 fixture.

``tests/fixtures/store_v2`` is the population of ``store_v1`` as the last
commit before the stored marking's additive ``"fix"`` key wrote it:
positional markings, history rows, no key.  Every test of
``test_store_v1_fixture.py`` that opens the ``store`` fixture is collected
here again with that fixture pointing at the newer store — same cases, same
expected states, nothing rewritten on open.
"""

import json
import shutil

import pytest

from tests.storage.test_store_v1_fixture import (  # noqa: F401 - collected as this module's tests
    FIXTURE,
    FIXTURE_V2,
    test_canary_revert_restores_from_the_old_format_pre_state,
    test_every_case_matches_the_handwritten_expectation,
    test_every_running_case_steps_to_completion,
    test_first_checkpoint_writes_format_3_and_reproduces_every_fingerprint,
)


@pytest.fixture
def store(tmp_path):
    shutil.copytree(FIXTURE_V2, tmp_path / "store")
    return tmp_path / "store"


def test_fixture_is_in_format_2_without_the_additive_key():
    snapshot = json.loads((FIXTURE_V2 / "snapshot.json").read_text())
    assert snapshot["format"] == 2
    assert sorted(snapshot["instances"]) == sorted(
        json.loads((FIXTURE / "snapshot.json").read_text())["instances"]
    )
    for case_id, record in snapshot["instances"].items():
        keys = {"node_states", "edge_states"} if record["biased"] else {"layout", "nodes", "edges"}
        assert set(record["marking"]) == keys, case_id
        assert "rows" in record["history"], case_id
    assert sum(path.stat().st_size for path in FIXTURE_V2.iterdir()) <= 50 * 1024
