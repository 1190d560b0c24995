"""Tests for the monitoring feed's windowed views."""

from repro.monitoring.feed import EventFeed
from repro.system.events import SystemEvent


def _feed(names):
    feed = EventFeed()
    for seq, name in enumerate(names, start=1):
        feed(SystemEvent(seq, "migration" if name.startswith("m") else "system", name))
    return feed


class TestTailAndRender:
    def test_tail_counts_from_the_newest_event(self):
        feed = _feed(["s1", "m2", "s3"])
        assert [event.name for event in feed.tail(2)] == ["m2", "s3"]
        assert [event.name for event in feed.tail(5)] == ["s1", "m2", "s3"]
        assert [event.name for event in feed.tail(5, category="migration")] == ["m2"]

    def test_a_count_of_zero_or_less_shows_nothing(self):
        feed = _feed(["s1", "m2", "s3"])
        for count in (0, -1):
            assert feed.tail(count) == []
            assert feed.tail(count, category="system") == []
            assert feed.render(limit=count).splitlines() == [
                "event feed (3 event(s), showing last 0):"
            ]

    def test_render_shows_the_newest_events_under_the_header(self):
        lines = _feed(["s1", "m2", "s3"]).render(limit=2).splitlines()
        assert lines[0] == "event feed (3 event(s), showing last 2):"
        assert [line.split()[-1] for line in lines[1:]] == ["m2", "s3"]
