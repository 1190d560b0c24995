"""Extra storage tests: adopting evolved process types and index queries."""

import pytest

from repro.core.evolution import EvolutionError, ProcessType
from repro.schema import templates
from repro.storage.indexes import InstanceIndex
from repro.storage.instance_store import InstanceStore
from repro.storage.repository import SchemaRepository
from repro.workloads.order_process import order_type_change_v2, paper_fig3_population


class TestAdoptType:
    def test_adopt_registers_all_versions(self):
        process_type = ProcessType("online_order", templates.online_order_process())
        process_type.release_new_version(order_type_change_v2())
        repository = SchemaRepository()
        repository.adopt_type(process_type)
        assert repository.versions_of("online_order") == [1, 2]
        assert repository.schema("online_order", 2).has_node("send_questions")

    def test_adopt_rejects_duplicates(self, order_schema):
        repository = SchemaRepository()
        repository.register_type(order_schema)
        with pytest.raises(EvolutionError):
            repository.adopt_type(ProcessType("online_order", templates.online_order_process()))

    def test_adopted_type_supports_instance_store(self):
        process_type, engine, instances = paper_fig3_population(instance_count=20, seed=12)
        repository = SchemaRepository()
        repository.adopt_type(process_type)
        store = InstanceStore(repository)
        store.save_all(instances)
        assert len(store) == 20


class TestInstanceIndex:
    def record(self, instance_id, version=1, status="running", biased=False):
        return {
            "instance_id": instance_id,
            "process_type": "online_order",
            "schema_version": version,
            "status": status,
            "biased": biased,
        }

    def test_counts_by_version(self):
        index = InstanceIndex()
        index.add("a", self.record("a", version=1))
        index.add("b", self.record("b", version=2))
        index.add("c", self.record("c", version=2))
        assert index.counts_by_version("online_order") == {1: 1, 2: 2}

    def test_reindexing_replaces_old_entries(self):
        index = InstanceIndex()
        index.add("a", self.record("a", version=1, status="running"))
        index.add("a", self.record("a", version=2, status="completed"))
        assert index.by_version("online_order", 1) == []
        assert index.by_version("online_order", 2) == ["a"]
        assert index.by_status("completed") == ["a"]

    def test_biased_tracking_and_clear(self):
        index = InstanceIndex()
        index.add("a", self.record("a", biased=True))
        index.add("b", self.record("b"))
        assert index.biased_instances() == ["a"]
        index.remove("a")
        assert index.biased_instances() == []
        index.clear()
        assert index.by_type("online_order") == []

    def test_buckets_are_bounded_by_what_is_indexed(self):
        """50 rounds of "release a version, migrate everyone": the index
        keeps buckets for the (type, version) pairs that hold a case, not
        for every version ever released — ``add`` re-indexes in O(1)."""
        index = InstanceIndex()
        ids = [f"case-{n}" for n in range(6)]
        for instance_id in ids:
            index.add(instance_id, self.record(instance_id, version=1))
        for version in range(2, 52):
            for instance_id in ids[:-1]:  # the last case conflicts and stays on v1
                index.add(instance_id, self.record(instance_id, version=version))
        assert len(index._by_version) == 2
        assert index.counts_by_version("online_order") == {1: 1, 51: 5}
        assert index.by_version("online_order", 51) == ids[:-1]
        assert index.by_version("online_order", 1) == ids[-1:]
        assert index.by_version("online_order", 17) == []
        assert index.by_type("online_order") == ids
        assert index.by_status("running") == ids

        index.add(ids[0], self.record(ids[0], version=51, status="completed", biased=True))
        assert index.by_status("completed") == [ids[0]]
        assert index.by_status("running") == ids[1:]
        assert index.biased_instances() == [ids[0]]
        for instance_id in ids:
            index.remove(instance_id)
        index.remove("never-indexed")
        assert not (index._by_type or index._by_version or index._by_status or index._biased)

    def test_store_index_stays_bounded_across_evolutions(self):
        """The same through the façade: evolve + migrate-all, 50 times."""
        from repro import AdeptSystem
        from repro.core.operations import ChangeActivityAttributes

        system = AdeptSystem(cache_instances=2)
        sequence = system.deploy(templates.sequential_process())
        ids = [sequence.start().instance_id for _ in range(6)]
        for round_ in range(50):
            report = sequence.evolve(
                [ChangeActivityAttributes(activity_id="step_5", name=f"round {round_}")]
            )
            assert report.migrated_count == len(ids)
        system.save_all()  # live cases write back lazily
        index = system.store.index
        stored = set(system.stored_instance_ids())
        assert stored == set(ids) and len(index._by_version) == 1
        assert set(index.by_version("sequence", 51)) == stored
        assert index.counts_by_version("sequence") == {51: len(stored)}


class _CountingEntries(dict):
    """The index's per-case entries, counting every one a query reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


class TestActiveCaseQueries:
    """``running_instances`` / ``running_instances_of_type`` / ``running_instances_on_version``."""

    STATUSES = ("created", "running", "suspended", "completed")

    def mixed_store(self):
        repository = SchemaRepository()
        store = InstanceStore(repository)
        serial = 0
        for type_name in ("alpha", "beta", "gamma"):
            for version in (1, 2, 3):
                for status in self.STATUSES:
                    for _ in range(2):
                        serial += 1
                        store.put_record(
                            {
                                # ids deliberately not in type/version order
                                "instance_id": f"case-{(serial * 37) % 101:03d}-{serial}",
                                "process_type": type_name,
                                "schema_version": version,
                                "status": status,
                            }
                        )
        return store

    def test_queries_equal_a_filter_over_every_record(self):
        store = self.mixed_store()
        records = [record for _, record in store.scan_records()]
        active = ("created", "running", "suspended")
        assert store.running_instances() == sorted(
            r["instance_id"] for r in records if r["status"] in active
        )
        for type_name in ("alpha", "beta", "gamma", "unknown"):
            of_type = [r for r in records if r["process_type"] == type_name]
            assert store.running_instances_of_type(type_name) == sorted(
                r["instance_id"] for r in of_type if r["status"] in active
            )
            for version in (1, 2, 3, 4):
                assert store.running_instances_on_version(type_name, version) == sorted(
                    r["instance_id"]
                    for r in of_type
                    if r["schema_version"] == version and r["status"] in active
                )

    def test_cost_is_set_by_the_bucket_not_by_the_store(self):
        store = self.mixed_store()
        entries = store.index._entries = _CountingEntries(store.index._entries)

        def reads_of(query, *args):
            before = entries.reads
            result = query(*args)
            return result, entries.reads - before

        on_version, version_reads = reads_of(store.running_instances_on_version, "alpha", 2)
        of_type, type_reads = reads_of(store.running_instances_of_type, "alpha")
        assert (version_reads, type_reads) == (8, 24)  # the bucket's members, once each
        for serial in range(20_000):
            store.put_record(
                {
                    "instance_id": f"other-{serial}",
                    "process_type": "delta",
                    "schema_version": 1,
                    "status": "running",
                }
            )
        assert reads_of(store.running_instances_on_version, "alpha", 2) == (on_version, 8)
        assert reads_of(store.running_instances_of_type, "alpha") == (of_type, 24)


class TestWriteBackMark:
    """``written_back`` says whether the record is the one ``write_back`` stored."""

    def store_with_one_case(self):
        process_type, engine, instances = paper_fig3_population(instance_count=1, seed=12)
        repository = SchemaRepository()
        repository.adopt_type(process_type)
        store = InstanceStore(repository)
        return store, instances[0]

    def test_only_the_write_back_marks(self):
        store, instance = self.store_with_one_case()
        case_id = instance.instance_id
        assert not store.written_back(case_id)
        store.save(instance)
        assert not store.written_back(case_id)
        store.write_back(instance)
        assert store.written_back(case_id)
        assert store.load(case_id).state_fingerprint() == instance.state_fingerprint()

    @pytest.mark.parametrize("writer", ["save", "put_record", "migrate_record", "delete", "clear"])
    def test_every_other_writer_clears_the_mark(self, writer):
        store, instance = self.store_with_one_case()
        case_id = instance.instance_id
        store.write_back(instance)
        record = store.record(case_id)
        if writer == "save":
            store.save(instance)
        elif writer == "put_record":
            store.put_record(record)
        elif writer == "migrate_record":
            store.migrate_record(case_id, record["schema_version"], record["marking"])
        elif writer == "delete":
            store.delete(case_id)
            store.put_record(record)
        else:
            store.clear_write_back_marks()
        assert not store.written_back(case_id)
