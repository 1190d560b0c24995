"""Tests for the key-value store and the write-ahead log."""

import json

import pytest

from repro.storage.kv import KeyValueStore
from repro.storage.wal import WriteAheadLog


class TestKeyValueStore:
    def test_put_get_delete(self):
        store = KeyValueStore()
        store.put("ns", "k1", {"a": 1})
        assert store.get("ns", "k1") == {"a": 1}
        assert store.contains("ns", "k1")
        assert store.delete("ns", "k1")
        assert store.get("ns", "k1") is None
        assert not store.delete("ns", "k1")

    def test_get_default(self):
        store = KeyValueStore()
        assert store.get("ns", "missing", default="fallback") == "fallback"

    def test_keys_and_scan(self):
        store = KeyValueStore()
        store.put("ns", "a", {"v": 1})
        store.put("ns", "b", {"v": 2})
        assert sorted(store.keys("ns")) == ["a", "b"]
        assert dict(store.scan("ns")) == {"a": {"v": 1}, "b": {"v": 2}}

    def test_namespaces_are_isolated(self):
        store = KeyValueStore()
        store.put("first", "k", {"v": 1})
        store.put("second", "k", {"v": 2})
        assert store.get("first", "k") != store.get("second", "k")
        assert set(store.namespaces()) == {"first", "second"}

    def test_non_serialisable_rejected(self):
        store = KeyValueStore()
        with pytest.raises(TypeError):
            store.put("ns", "k", {"bad": object()})

    def test_clear(self):
        store = KeyValueStore()
        store.put("ns", "k", {"v": 1})
        store.clear("ns")
        assert store.count("ns") == 0
        store.put("other", "k", {"v": 1})
        store.clear()
        assert store.count("other") == 0

    def test_size_accounting(self):
        store = KeyValueStore()
        assert store.size_bytes("ns") == len(json.dumps({}))
        store.put("ns", "k", {"v": "x" * 100})
        assert store.size_bytes("ns") > 100
        assert store.size_bytes() >= store.size_bytes("ns")

    def test_persistence_roundtrip(self, tmp_path):
        store = KeyValueStore(directory=str(tmp_path))
        store.put("ns", "k1", {"a": 1})
        store.put("ns", "k2", {"b": 2})
        store.delete("ns", "k2")
        reopened = KeyValueStore(directory=str(tmp_path))
        assert reopened.get("ns", "k1") == {"a": 1}
        assert reopened.get("ns", "k2") is None

    def test_corrupt_namespace_file_ignored(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not valid json", encoding="utf-8")
        store = KeyValueStore(directory=str(tmp_path))
        assert store.count("broken") == 0


class TestWriteAheadLog:
    def test_append_and_read_in_memory(self):
        wal = WriteAheadLog()
        wal.append({"action": "save", "id": "a"})
        wal.append({"action": "delete", "id": "b"})
        assert len(wal) == 2
        assert [r["action"] for r in wal] == ["save", "delete"]

    def test_truncate(self):
        wal = WriteAheadLog()
        wal.append({"action": "save"})
        wal.truncate()
        assert len(wal) == 0

    def test_file_backed_roundtrip(self, tmp_path):
        path = tmp_path / "logs" / "instances.wal"
        wal = WriteAheadLog(str(path))
        wal.append({"action": "save", "id": "a"})
        reopened = WriteAheadLog(str(path))
        assert len(reopened) == 1
        assert reopened.records()[0]["id"] == "a"

    def test_torn_trailing_line_ignored(self, tmp_path):
        path = tmp_path / "instances.wal"
        wal = WriteAheadLog(str(path))
        wal.append({"action": "save", "id": "a"})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"action": "save", "id": "tor')  # crash mid-write
        assert len(WriteAheadLog(str(path))) == 1

    def test_file_truncate(self, tmp_path):
        path = tmp_path / "instances.wal"
        wal = WriteAheadLog(str(path))
        wal.append({"action": "save"})
        wal.truncate()
        assert len(WriteAheadLog(str(path))) == 0

    def test_lines_are_byte_identical_to_json_dumps_sort_keys(self, tmp_path):
        """The log encodes with one shared encoder; the bytes stay json.dumps's."""
        import random

        rng = random.Random(23)
        values = [
            None, True, False, 0, -7, 1.0, 2.5e-3, 1e22, "", "plain", "ümläut →  ", "q\"uo\\te",
            [], {}, [1, [2, {"z": None, "a": [True]}]], {"b": {"d": 1, "c": "x"}, "a": []},
        ]
        records = []
        for seq in range(1000):
            kind = rng.choice(["step", "instance_started", "adhoc_change", "evolution"])
            record = {"seq": seq, "kind": kind, "instance_id": f"case-{rng.randrange(50)}"}
            if kind == "step":
                record.update(
                    action=rng.choice(["start", "complete"]),
                    activity=f"act_{rng.randrange(9)}",
                    outputs=rng.choice([None, {f"d{i}": rng.choice(values) for i in range(3)}]),
                    user=rng.choice([None, "alice"]),
                )
            else:
                for _ in range(rng.randrange(4)):
                    record[rng.choice("zyxwvu") + str(rng.randrange(3))] = rng.choice(values)
            records.append(record)
        path = tmp_path / "mixed.wal"
        wal = WriteAheadLog(str(path))
        for record in records:
            wal.append(record)
        wal.close()
        expected = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
        assert path.read_bytes() == expected.encode("utf-8")
        assert WriteAheadLog(str(path)).records() == records
