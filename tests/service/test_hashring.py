"""The consistent-hash ring: determinism, balance, minimal remapping.

The service tier's placement invariants live here:

* routing is a pure function of ``(shard set, key)`` — independent of
  ``PYTHONHASHSEED``, process identity and insertion history;
* adding or removing one shard remaps only about K/N of K keys (the
  consistent-hashing bound), which is what makes :meth:`ShardRouter
  .add_shard` a bounded handover instead of a full reshuffle.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import HashRing, ServiceError


def _keys(count):
    return [f"case-{index:05d}" for index in range(count)]


class TestRouting:
    def test_routes_every_key_to_a_member(self):
        ring = HashRing(["a", "b", "c"])
        for key in _keys(200):
            assert ring.shard_for(key) in ("a", "b", "c")

    def test_deterministic_across_instances(self):
        one = HashRing(["a", "b", "c"])
        two = HashRing(["c", "a", "b"])  # insertion order must not matter
        for key in _keys(500):
            assert one.shard_for(key) == two.shard_for(key)

    def test_partition_preserves_input_order(self):
        ring = HashRing(["a", "b"])
        keys = _keys(100)
        groups = ring.partition(keys)
        for group in groups.values():
            assert group == sorted(group, key=keys.index)
        assert sorted(key for group in groups.values() for key in group) == keys

    def test_empty_ring_raises(self):
        ring = HashRing([])
        with pytest.raises(ServiceError):
            ring.shard_for("case-1")

    def test_duplicate_shard_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ServiceError):
            ring.add_shard("a")

    def test_remove_unknown_shard_rejected(self):
        with pytest.raises(ServiceError):
            HashRing(["a"]).remove_shard("b")


class TestDeterminismAcrossProcesses:
    def test_same_mapping_under_different_hash_seeds(self):
        """sha256 routing is PYTHONHASHSEED-independent by construction.

        A ring based on ``hash()`` would pass in-process determinism tests
        and still split a fleet whose router and shards were started with
        different seeds; this runs the mapping in fresh interpreters with
        adversarial seeds and compares.
        """
        program = (
            "from repro.service import HashRing\n"
            "ring = HashRing(['s0', 's1', 's2', 's3'])\n"
            "print(','.join(ring.shard_for(f'case-{i:04d}') for i in range(64)))\n"
        )
        outputs = set()
        for seed in ("0", "1", "31337"):
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": ":".join(sys.path)},
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1


class TestMinimalRemapping:
    @settings(max_examples=25, deadline=None)
    @given(
        shards=st.integers(min_value=2, max_value=9),
        keys=st.integers(min_value=200, max_value=800),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_adding_a_shard_remaps_about_k_over_n(self, shards, keys, seed):
        import random

        rng = random.Random(seed)
        names = [f"shard-{index:02d}" for index in range(shards)]
        population = [f"case-{rng.getrandbits(48):012x}" for _ in range(keys)]
        ring = HashRing(names)
        before = {key: ring.shard_for(key) for key in population}
        ring.add_shard("shard-new")
        moved = sum(1 for key in population if ring.shard_for(key) != before[key])
        # expectation is K/(N+1); allow generous sampling noise but stay
        # far below the "rehash everything" failure mode
        assert moved <= 3.0 * keys / (shards + 1)
        # every moved key landed on the new shard — consistent hashing
        # never shuffles keys between surviving shards
        for key in population:
            owner = ring.shard_for(key)
            if owner != before[key]:
                assert owner == "shard-new"

    @settings(max_examples=25, deadline=None)
    @given(
        shards=st.integers(min_value=3, max_value=9),
        keys=st.integers(min_value=200, max_value=800),
    )
    def test_removing_a_shard_only_reassigns_its_keys(self, shards, keys):
        names = [f"shard-{index:02d}" for index in range(shards)]
        population = _keys(keys)
        ring = HashRing(names)
        before = {key: ring.shard_for(key) for key in population}
        victim = names[shards // 2]
        ring.remove_shard(victim)
        for key in population:
            if before[key] != victim:
                assert ring.shard_for(key) == before[key]
            else:
                assert ring.shard_for(key) != victim

    def test_load_is_roughly_balanced(self):
        ring = HashRing([f"s{index}" for index in range(8)], replicas=128)
        counts = {shard: 0 for shard in ring.shard_ids}
        population = _keys(8000)
        for key in population:
            counts[ring.shard_for(key)] += 1
        expected = len(population) / len(counts)
        for shard, count in counts.items():
            assert 0.4 * expected <= count <= 1.9 * expected, (shard, counts)


class TestMemo:
    """``shard_for`` memoises key → owner; the memo never answers stale."""

    def test_memoised_lookups_agree_with_a_fresh_ring(self):
        names = ["a", "b", "c", "d"]
        keys = _keys(10000)
        ring = HashRing(names)
        first = [ring.shard_for(key) for key in keys]
        memoised = [ring.shard_for(key) for key in keys]
        fresh = HashRing(names)
        assert memoised == first == [fresh.shard_for(key) for key in keys]
        assert ring.partition(keys) == HashRing(names).partition(keys)

    @pytest.mark.parametrize("change", ["add", "remove"])
    def test_a_membership_change_reroutes_every_moved_key_at_once(self, change):
        keys = _keys(5000)
        ring = HashRing(["a", "b", "c"])
        before = {key: ring.shard_for(key) for key in keys}
        if change == "add":
            ring.add_shard("d")
            members = ["a", "b", "c", "d"]
        else:
            ring.remove_shard("b")
            members = ["a", "c"]
        fresh = HashRing(members)
        moved = [key for key in keys if fresh.shard_for(key) != before[key]]
        assert moved  # the change did move keys, and the memo knew them all
        for key in keys:
            assert ring.shard_for(key) == fresh.shard_for(key)
        assert ring.partition(moved) == fresh.partition(moved)

    def test_the_memo_never_grows_past_its_cap(self):
        ring = HashRing(["a", "b"])
        cap = HashRing._MEMO_CAP
        for key in _keys(cap + 1000):
            ring.shard_for(key)
            assert len(ring._memo) <= cap
        ring.partition(_keys(cap + 1000)[-3000:])
        assert len(ring._memo) <= cap
