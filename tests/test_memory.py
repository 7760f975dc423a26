"""Replay buffers, tuple selection, teacher snapshots."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcl.memory import (
    EmptyBuffer,
    ReservoirBuffer,
    RingBuffer,
    buffer_sample,
    select_cross_task_tuples,
    select_pseudo_task_tuples,
)
from streamcl.trainer import Classifier


def fill(buffer, n, task_id=0, rng=None, start=0):
    for i in range(start, start + n):
        buffer.insert(np.full((1, 2, 2), float(i)), i % 10, task_id, i, rng=rng)


class TestRingBuffer:
    def test_fifo_overwrite_keeps_last_50(self):
        buf = RingBuffer(50)
        for i in range(60):
            buf.insert(np.zeros((1, 1, 1)), 0, 0, i)
        stored = sorted(it[3] for it in buf.items())
        assert stored == list(range(10, 60))

    def test_capacity_bound_at_all_times(self):
        buf = RingBuffer(5)
        for i in range(37):
            buf.insert(np.zeros(1), 0, i % 3, i)
            assert all(len(buf.task_items(t)) <= 5 for t in buf.stored_tasks())
        assert len(buf) == 15

    def test_per_task_isolation(self):
        buf = RingBuffer(3)
        fill(buf, 3, task_id=1)
        fill(buf, 2, task_id=2, start=100)
        assert len(buf.task_items(1)) == 3
        assert sorted(it[3] for it in buf.task_items(2)) == [100, 101]


class TestReservoirBuffer:
    def test_fill_phase_stores_everything(self):
        rng = np.random.default_rng(0)
        buf = ReservoirBuffer(100)
        fill(buf, 100, rng=rng)
        assert sorted(it[3] for it in buf.items()) == list(range(100))

    def test_never_exceeds_capacity(self):
        rng = np.random.default_rng(1)
        buf = ReservoirBuffer(10)
        fill(buf, 500, rng=rng)
        assert len(buf) == 10

    def test_unique_labels(self):
        rng = np.random.default_rng(2)
        buf = ReservoirBuffer(50)
        fill(buf, 30, rng=rng)
        assert buf.unique_labels() == list(range(10))


class TestBufferParity:
    def test_both_policies_answer_the_same_queries(self):
        """Holding the same items, a ring and a reservoir agree on every query."""
        rng = np.random.default_rng(3)
        ring, reservoir = RingBuffer(20), ReservoirBuffer(60)
        for i in range(45):  # tasks arrive in order, as in a stream
            x = np.full((1, 2, 2), float(i))
            for buf in (ring, reservoir):
                buf.insert(x, (i * 7) % 5, 1 + i // 15, i, rng=rng)

        def key(items):
            return [(float(x[0, 0, 0]), y, t, i) for x, y, t, i in items]

        assert len(ring) == len(reservoir) == 45
        assert ring.stored_tasks() == reservoir.stored_tasks() == [1, 2, 3]
        assert ring.unique_labels() == reservoir.unique_labels() == [0, 1, 2, 3, 4]
        for t in (1, 2, 3, 4):
            assert key(ring.task_items(t)) == key(reservoir.task_items(t))
        assert ring.task_items(4) == []
        for label in range(6):
            assert key(ring.label_items(label)) == key(reservoir.label_items(label))
        assert ring.label_items(5) == []
        assert key(ring.items()) == key(reservoir.items())


class TestBufferSample:
    def test_exhaustive_draw_is_permutation(self):
        buf = RingBuffer(10)
        fill(buf, 10)
        rng = np.random.default_rng(3)
        batch = buffer_sample(buf, 10, rng)
        assert sorted(batch.indices.tolist()) == list(range(10))
        assert not batch.with_replacement

    def test_fixed_seed_reproducible(self):
        buf = RingBuffer(10)
        fill(buf, 10)
        a = buffer_sample(buf, 4, np.random.default_rng(7))
        b = buffer_sample(buf, 4, np.random.default_rng(7))
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_oversized_draw_flags_replacement(self):
        buf = RingBuffer(10)
        fill(buf, 3)
        batch = buffer_sample(buf, 8, np.random.default_rng(4))
        assert batch.with_replacement and len(batch) == 8

    def test_empty_buffer_raises(self):
        with pytest.raises(EmptyBuffer):
            buffer_sample(RingBuffer(5), 1, np.random.default_rng(0))

    def test_sampling_frequencies_uniform(self):
        buf = RingBuffer(10)
        fill(buf, 10)
        rng = np.random.default_rng(5)
        counts = np.zeros(10)
        for _ in range(10_000):
            counts[buffer_sample(buf, 1, rng).indices[0]] += 1
        sigma = np.sqrt(10_000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - 1000) <= 3 * sigma)


class TestTupleSelection:
    def test_full_selection_when_n_equals_stored(self):
        buf = RingBuffer(10)
        fill(buf, 6, task_id=1)
        sel = select_cross_task_tuples(buf, 6, np.random.default_rng(6))
        assert sorted(sel[1].indices.tolist()) == list(range(6))

    def test_insufficient_samples(self):
        # a task holding fewer than n gives every item it stores
        buf = RingBuffer(50)
        fill(buf, 50, task_id=1)
        sel = select_cross_task_tuples(buf, 60, np.random.default_rng(7))
        assert sorted(sel[1].indices.tolist()) == list(range(50))

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_standard_sizes_accepted_at_k50(self, n):
        buf = RingBuffer(50)
        for t in (1, 2):
            fill(buf, 50, task_id=t, start=100 * t)
        sel = select_cross_task_tuples(buf, n, np.random.default_rng(8))
        assert all(len(sel[t]) == n for t in (1, 2))

    def test_pseudo_task_selection(self):
        rng = np.random.default_rng(9)
        buf = ReservoirBuffer(1000)
        for i in range(400):
            buf.insert(np.zeros(1), i % 8, 0, i, rng=rng)
        anchors, tuples = select_pseudo_task_tuples(
            buf, class_order=list(range(8)), new_task_threshold=4,
            n_per_task=10, n_per_class=2, rng=rng)
        assert set(anchors) == {1, 2} and set(tuples) == {1, 2}
        assert len(anchors[1]) == 8  # 2 per class x 4 classes
        assert len(tuples[2]) == 10
        assert set(np.unique(tuples[1].ys)) <= {0, 1, 2, 3}
        assert set(np.unique(tuples[2].ys)) <= {4, 5, 6, 7}


def _classifier():
    return Classifier((2, 4, 4), 3, "spn", 2, 0.1, 1e-5, np.random.default_rng(0),
                      feature_channels=4)


class TestSnapshot:
    """The teacher snapshot is a ``Classifier.clone`` taken at a boundary."""

    def test_mutation_after_snapshot_does_not_leak(self):
        clf = _classifier()
        snap = clf.clone()
        before = clf.head_w.data.copy()
        clf.head_w.data[:] = 99.0
        np.testing.assert_array_equal(snap.head_w.data, before)

    def test_two_snapshots_of_untouched_model_identical(self):
        clf = _classifier()
        a, b = clf.clone(), clf.clone()
        assert a.state_bytes() == b.state_bytes()


def test_reservoir_insert_stores_sample():
    buf = ReservoirBuffer(5)
    buf.insert(np.zeros(1), 3, 1, 0, rng=np.random.default_rng(11))
    assert len(buf) == 1 and buf.items()[0][1] == 3


class TestProperties:
    @given(capacity=st.integers(1, 6), tasks=st.lists(st.integers(1, 4), max_size=60))
    def test_ring_keeps_the_last_capacity_items_per_task(self, capacity, tasks):
        buf = RingBuffer(capacity)
        for i, t in enumerate(tasks):
            buf.insert(np.zeros(1), i % 10, t, i)
        assert buf.stored_tasks() == sorted(set(tasks))
        assert len(buf) == sum(len(buf.task_items(t)) for t in set(tasks))
        for t in set(tasks):
            inserted = [i for i, s in enumerate(tasks) if s == t]
            assert sorted(it[3] for it in buf.task_items(t)) == inserted[-capacity:]
            assert all(it[2] == t for it in buf.task_items(t))

    @given(capacity=st.integers(1, 10), tasks=st.lists(st.integers(1, 4), max_size=60),
           seed=st.integers(0, 2**32 - 1), n_per_task=st.integers(1, 12))
    def test_reservoir_is_a_bounded_subset_of_the_stream(self, capacity, tasks, seed, n_per_task):
        rng = np.random.default_rng(seed)
        buf = ReservoirBuffer(capacity)
        for i, t in enumerate(tasks):
            buf.insert(np.zeros(1), i % 10, t, i, rng=rng)
        stored = [it[3] for it in buf.items()]
        assert buf.seen == len(tasks) and len(buf) == min(len(tasks), capacity)
        assert len(set(stored)) == len(stored)
        assert all(tasks[i] == t for _, _, t, i in buf.items())
        if len(tasks) <= capacity:
            assert stored == list(range(len(tasks)))
        sel = select_cross_task_tuples(buf, n_per_task, rng)
        assert sorted(sel) == buf.stored_tasks()
        for t, batch in sel.items():
            held = {it[3] for it in buf.task_items(t)}
            assert len(batch) == min(n_per_task, len(held)) and set(batch.indices) <= held
