"""Tests for the monitoring feed: exact counts, and no event kept."""

import sys
import threading
import weakref

from repro.monitoring.feed import EventFeed
from repro.system.events import SystemEvent


class _Event:
    """An event-shaped object a weak reference can watch (a tuple cannot)."""

    def __init__(self, category, name):
        self.category = category
        self.name = name


class TestCounts:
    def test_the_feed_keeps_no_event_it_counted(self):
        feed = EventFeed()
        event = _Event("migration", "instance_migrated")
        watch = weakref.ref(event)
        feed(event)
        del event
        assert watch() is None
        assert feed.counts() == {"instance_migrated": 1}
        assert feed.category_counts() == {"migration": 1}

    def test_counts_from_many_threads_are_exact(self):
        feed = EventFeed()

        def deliver(first):
            for seq in range(first, first + 5000):
                feed(SystemEvent(seq, "migration" if seq % 2 else "system", f"e{seq % 3}"))

        threads = [threading.Thread(target=deliver, args=(part * 5000,)) for part in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often: a lost update would show
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert feed.category_counts() == {"migration": 10000, "system": 10000}
        counts = feed.counts()
        assert sorted(counts) == ["e0", "e1", "e2"] and sum(counts.values()) == 20000
        assert counts["e0"] == len(range(0, 20000, 3))
