"""Tests for the write-ahead log."""

import json

import pytest

from repro.errors import PersistenceError
from repro.storage.wal import WriteAheadLog


class TestWriteAheadLog:
    def test_append_and_read(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "instances.wal"))
        wal.append({"action": "save", "id": "a"})
        wal.append({"action": "delete", "id": "b"})
        assert len(wal) == 2
        assert [r["action"] for r in wal] == ["save", "delete"]
        assert (wal.append_count, wal.flush_count) == (2, 2)

    def test_truncate(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "instances.wal"))
        wal.append({"action": "save"})
        wal.truncate()
        assert len(wal) == 0
        assert wal.size_bytes() == 0
        wal.append({"action": "save", "id": "after"})
        assert [r["id"] for r in wal] == ["after"]

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

    def test_truncate_refuses_uncommitted_records(self, tmp_path):
        """A checkpoint must cover every enqueued record, never drop one."""
        wal = WriteAheadLog(str(tmp_path / "instances.wal"))
        wal.append({"action": "save", "id": "a"})
        ticket = wal.enqueue({"action": "save", "id": "pending"})
        with pytest.raises(PersistenceError, match="1 enqueued record"):
            wal.truncate()
        wal.commit(ticket)
        assert [r["id"] for r in wal] == ["a", "pending"]
        wal.truncate()
        assert len(wal) == 0

    def test_lines_are_byte_identical_to_json_dumps_sort_keys(self, tmp_path):
        """The log encodes with one shared encoder; the bytes are json.dumps's.

        A line is the compact sorted dialect; the log itself writes every
        field it is given, ``None`` values included (the persistence
        backend is what leaves them out).
        """
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
        expected = "".join(
            json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
            for record in records
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert WriteAheadLog(str(path)).records() == records
