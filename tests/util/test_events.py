"""Tests for the event bus and typed signals."""

import fnmatch

from hypothesis import given
from hypothesis import strategies as st

from repro.util.events import EventBus, TypedSignal

#: Topics the matching tests publish, against every pattern below.
TOPICS = (
    "gps.fix", "gps.fit", "gps.fixed", "rps.fix", "xps.fix", "radio.sms",
    "radio.sms.sent", "radio", "radio.", "gps.fi?", "[gr]ps.fix", "gps.fix[",
)


def _delivered(patterns, topic):
    """Indices of the subscriptions ``publish(topic)`` reaches."""
    bus = EventBus()
    hits = []
    for index, pattern in enumerate(patterns):
        bus.subscribe(pattern, lambda t, p, index=index: hits.append(index))
    assert bus.publish(topic) == len(hits)
    assert bus.subscriber_count(topic) == len(hits)
    return hits


class TestEventBus:
    def test_exact_topic_delivery(self, bus):
        received = []
        bus.subscribe("gps.fix", lambda topic, payload: received.append(payload))
        assert bus.publish("gps.fix", 42) == 1
        assert received == [42]

    def test_non_matching_topic_not_delivered(self, bus):
        received = []
        bus.subscribe("gps.fix", lambda t, p: received.append(p))
        assert bus.publish("radio.sms", 1) == 0
        assert received == []

    def test_glob_pattern(self, bus):
        received = []
        bus.subscribe("radio.*", lambda t, p: received.append(t))
        bus.publish("radio.sms", None)
        bus.publish("radio.call", None)
        bus.publish("gps.fix", None)
        assert received == ["radio.sms", "radio.call"]

    def test_delivery_in_subscription_order(self, bus):
        order = []
        bus.subscribe("t", lambda t, p: order.append("first"))
        bus.subscribe("t", lambda t, p: order.append("second"))
        bus.publish("t")
        assert order == ["first", "second"]

    def test_unsubscribe(self, bus):
        received = []
        sub = bus.subscribe("t", lambda t, p: received.append(p))
        bus.publish("t", 1)
        sub.unsubscribe()
        bus.publish("t", 2)
        assert received == [1]

    def test_unsubscribe_idempotent(self, bus):
        sub = bus.subscribe("t", lambda t, p: None)
        sub.unsubscribe()
        sub.unsubscribe()  # no error
        assert bus.subscriber_count("t") == 0

    def test_subscriber_count(self, bus):
        bus.subscribe("a.*", lambda t, p: None)
        bus.subscribe("a.b", lambda t, p: None)
        assert bus.subscriber_count("a.b") == 2
        assert bus.subscriber_count("c") == 0

    def test_subscribe_during_delivery_not_called_this_publish(self, bus):
        received = []

        def handler(topic, payload):
            received.append("outer")
            bus.subscribe("t", lambda t, p: received.append("inner"))

        bus.subscribe("t", handler)
        bus.publish("t")
        assert received == ["outer"]
        bus.publish("t")
        assert received.count("inner") == 1

    def test_literal_and_glob_patterns_deliver_as_fnmatchcase(self):
        patterns = (
            "radio.*", "gps.fi?", "[gr]ps.fix", "gps.fix", "radio.sms.sent",
            "gps.fix[", "[!g]ps.fix", "*", "radio",
        )
        for topic in TOPICS:
            expected = [
                index
                for index, pattern in enumerate(patterns)
                if fnmatch.fnmatchcase(topic, pattern)
            ]
            assert _delivered(patterns, topic) == expected, topic

    @given(
        patterns=st.lists(st.text(alphabet="ab.*?[]!", max_size=6), max_size=4),
        topic=st.text(alphabet="ab.*?[]!", max_size=6),
    )
    def test_matching_agrees_with_fnmatchcase(self, patterns, topic):
        expected = [
            index
            for index, pattern in enumerate(patterns)
            if fnmatch.fnmatchcase(topic, pattern)
        ]
        assert _delivered(patterns, topic) == expected

    def test_unsubscribe_during_delivery_skips_a_later_handler_at_once(self, bus):
        received = []
        subs = []

        def first(topic, payload):
            received.append("first")
            subs[1].unsubscribe()

        subs.append(bus.subscribe("t", first))
        subs.append(bus.subscribe("t", lambda t, p: received.append("second")))
        assert bus.publish("t") == 1
        assert received == ["first"]
        assert bus.publish("t") == 1
        assert received == ["first", "first"]


class TestTypedSignal:
    def test_emit_calls_handlers(self):
        signal = TypedSignal("test")
        values = []
        signal.connect(values.append)
        assert signal.emit(7) == 1
        assert values == [7]

    def test_disconnect(self):
        signal = TypedSignal()
        values = []
        disconnect = signal.connect(values.append)
        disconnect()
        signal.emit(1)
        assert values == []

    def test_len_counts_handlers(self):
        signal = TypedSignal()
        signal.connect(lambda: None)
        signal.connect(lambda: None)
        assert len(signal) == 2

    def test_kwargs_pass_through(self):
        signal = TypedSignal()
        seen = {}
        signal.connect(lambda **kw: seen.update(kw))
        signal.emit(level=0.5)
        assert seen == {"level": 0.5}
