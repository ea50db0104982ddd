"""Unit tests for interaction streams and batching."""

import pytest

from repro.errors import ConfigError
from repro.tdn.interaction import Interaction
from repro.tdn.lifetimes import ConstantLifetime
from repro.tdn.stream import BatchedStream, MemoryStream, group_by_lifetime


def events():
    return [
        Interaction("a", "b", 0),
        Interaction("b", "c", 0),
        Interaction("c", "d", 2),
        Interaction("d", "e", 5),
    ]


class TestMemoryStream:
    def test_groups_by_time(self):
        stream = MemoryStream(events())
        batches = list(stream)
        assert [t for t, _ in batches] == [0, 2, 5]
        assert len(batches[0][1]) == 2

    def test_fill_gaps(self):
        stream = MemoryStream(events(), fill_gaps=True)
        batches = list(stream)
        assert [t for t, _ in batches] == [0, 1, 2, 3, 4, 5]
        assert batches[1][1] == []

    def test_len(self):
        assert len(MemoryStream(events())) == 3
        assert len(MemoryStream(events(), fill_gaps=True)) == 6
        assert len(MemoryStream([])) == 0

    def test_empty_stream_iterates_nothing(self):
        assert list(MemoryStream([])) == []

    def test_replayable(self):
        stream = MemoryStream(events())
        assert list(stream) == list(stream)


class TestBatchedStream:
    def test_rebatches_and_retimes(self):
        stream = BatchedStream(events(), batch_size=3)
        batches = list(stream)
        assert [t for t, _ in batches] == [0, 1]
        assert len(batches[0][1]) == 3
        assert len(batches[1][1]) == 1
        # Events are restamped with the new step.
        assert all(i.time == 0 for i in batches[0][1])

    def test_order_preserved(self):
        stream = BatchedStream(events(), batch_size=1)
        flattened = [i for _, batch in stream for i in batch]
        assert [(i.source, i.target) for i in flattened] == [
            ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
        ]

    def test_len_rounds_up(self):
        assert len(BatchedStream(events(), batch_size=3)) == 2

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigError, match="batch_size must be >= 1, got 0"):
            BatchedStream(events(), batch_size=0)


class TestStreamCombinators:
    def test_with_lifetimes_assigns_missing_only(self):
        raw = [Interaction("a", "b", 0), Interaction("b", "c", 0, 9)]
        stream = MemoryStream(raw).with_lifetimes(ConstantLifetime(4))
        (t, batch), = list(stream)
        assert batch[0].lifetime == 4
        assert batch[1].lifetime == 9  # pre-assigned untouched

    def test_take_truncates(self):
        stream = MemoryStream(events()).take(2)
        assert [t for t, _ in stream] == [0, 2]

    def test_take_zero(self):
        assert list(MemoryStream(events()).take(0)) == []

    def test_take_negative(self):
        with pytest.raises(ConfigError, match="max_steps must be >= 0, got -1"):
            MemoryStream(events()).take(-1)

    def test_materialize(self):
        assert MemoryStream(events()).materialize() == list(MemoryStream(events()))


class TestGroupByLifetime:
    def test_partitions_by_lifetime(self):
        batch = [
            Interaction("a", "b", 0, 1),
            Interaction("b", "c", 0, 1),
            Interaction("c", "d", 0, 3),
            Interaction("d", "e", 0),
        ]
        groups = group_by_lifetime(batch)
        assert {k: len(v) for k, v in groups.items()} == {1: 2, 3: 1, None: 1}

    def test_empty_batch(self):
        assert group_by_lifetime([]) == {}
