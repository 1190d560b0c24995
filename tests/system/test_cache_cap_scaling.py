"""The eviction-cost gate (deterministic, no wall clock).

Enforcing the live-cache cap runs on every hydration and every ``start``,
inside the operation.  Its cost must be set by what it evicts, not by
how much it keeps: under the cap it does not look at the LRU at all, over
the cap it walks from the LRU head and stops at the last victim.  The
gate counts the keys the LRU hands out while the cap is enforced, for a
cache of 50 and of 5 000, and requires the counts to be equal; a copy of
the LRU per call shows up as a count a hundred times larger.  Which
cases go, in which order, written back before their ``instance_evicted``
event, is pinned alongside.
"""

from collections import OrderedDict

from repro import AdeptSystem
from repro.schema import templates

EVICTIONS = 20


class _CountingLRU(OrderedDict):
    """An LRU that counts every key an iteration over it hands out."""

    examined = 0

    def __iter__(self):
        for key in super().__iter__():
            self.examined += 1
            yield key


def _profile(path, cap):
    """What enforcing the cap examined, evicted and wrote, in cap-free terms."""
    system = AdeptSystem.open(path, cache_instances=cap)
    lru = system._instances = _CountingLRU()
    sequence = system.deploy(templates.sequential_process(length=3))
    trail = []  # ("written" | "evicted", case id) in the order they happened
    write_back = system.store.write_back

    def recording_write_back(instance):
        trail.append(("written", instance.instance_id))
        return write_back(instance)

    def record_eviction(event):
        if event.name == "instance_evicted":
            trail.append(("evicted", event.instance_id))

    system.store.write_back = recording_write_back
    system.bus.subscribe(record_eviction)

    # the least recently used case is a stepped one, so its write-back matters
    first = sequence.start().instance_id
    system.step_many([first], steps=1)
    stepped_state = lru[first].state_fingerprint()
    ids = [first] + [sequence.start().instance_id for _ in range(cap - 1)]
    examined_under_the_cap = lru.examined
    assert not trail, "nothing is evicted while the cache fits"

    examined = []
    for _ in range(EVICTIONS):
        before = lru.examined
        sequence.start()
        examined.append(lru.examined - before)
    evicted = [case for what, case in trail if what == "evicted"]
    assert evicted == ids[:EVICTIONS], "least recently used first"
    # every victim was dirty (never saved): written back, then announced
    assert [case for what, case in trail if what == "written"] == evicted
    for case in evicted:
        assert trail.index(("written", case)) < trail.index(("evicted", case))

    assert system.get_instance(first).state_fingerprint() == stepped_state
    system.close()
    return examined_under_the_cap, examined


def test_eviction_cost_does_not_depend_on_the_cache_size(tmp_path):
    small = _profile(tmp_path / "small", 50)
    large = _profile(tmp_path / "large", 5000)
    assert small == large
    under_the_cap, per_eviction = small
    assert under_the_cap == 0
    assert per_eviction == [1] * EVICTIONS
