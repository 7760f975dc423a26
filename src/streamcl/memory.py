"""Replay storage: per-task ring buffers, a reservoir buffer, tuple selection.

The ring buffer keeps a FIFO window of fixed capacity per task (task-aware
setting); the reservoir buffer keeps a uniform sample of the whole stream
(task-free setting).
"""

from __future__ import annotations

import numpy as np

from .streams import Batch


class EmptyBuffer(RuntimeError):
    """Sampling requested from a buffer with no stored items."""


class ReplayBuffer:
    """The queries both policies answer, all read from ``items()``: one
    ``(x, y, task, index)`` tuple per stored sample. A policy supplies
    ``insert`` and ``items``."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity

    def __len__(self):
        return len(self.items())

    def stored_tasks(self):
        return sorted({t for _, _, t, _ in self.items()})

    def task_items(self, task_id):
        return [it for it in self.items() if it[2] == task_id]

    def label_items(self, label):
        return [it for it in self.items() if it[1] == label]

    def unique_labels(self):
        return sorted({y for _, y, _, _ in self.items()})


class RingBuffer(ReplayBuffer):
    """Per-task slot arrays with FIFO overwrite at fixed capacity; ``items()``
    walks the tasks in sorted order, each in slot order."""

    def __init__(self, capacity_per_task):
        super().__init__(capacity_per_task)
        self._slots = {}
        self._cursor = {}

    def insert(self, x, y, task_id, index, rng=None):
        slots = self._slots.setdefault(task_id, [])
        item = (np.asarray(x), int(y), int(task_id), int(index))
        if len(slots) < self.capacity:
            slots.append(item)
        else:
            cur = self._cursor.get(task_id, 0)
            slots[cur] = item
            self._cursor[task_id] = (cur + 1) % self.capacity

    def items(self):
        return [it for t in sorted(self._slots) for it in self._slots[t]]


class ReservoirBuffer(ReplayBuffer):
    """Capacity-bounded uniform sample of an unbounded stream.

    After n insertions each seen item resides in the buffer with
    probability capacity/n: item i (1-based) draws j uniform in [0, i) and
    replaces slot j when j < capacity.
    """

    def __init__(self, capacity):
        super().__init__(capacity)
        self._slots = []
        self.seen = 0

    def insert(self, x, y, task_id, index, rng=None):
        if rng is None:
            raise ValueError("reservoir insertion needs an rng")
        self.seen += 1
        item = (np.asarray(x), int(y), int(task_id), int(index))
        if len(self._slots) < self.capacity:
            self._slots.append(item)
            return
        j = int(rng.integers(0, self.seen))
        if j < self.capacity:
            self._slots[j] = item

    def items(self):
        return list(self._slots)


def _to_batch(items, with_replacement=False):
    xs = np.stack([it[0] for it in items])
    ys = np.array([it[1] for it in items], dtype=np.int64)
    ts = np.array([it[2] for it in items], dtype=np.int64)
    idx = np.array([it[3] for it in items], dtype=np.int64)
    return Batch(xs, ys, ts, idx, with_replacement)


def buffer_sample(buffer, batch_size, rng):
    """Uniform draw without replacement; falls back to replacement (and
    flags it) when the request exceeds the stored count."""
    items = buffer.items()
    if not items:
        raise EmptyBuffer("no stored samples to draw from")
    replace = batch_size > len(items)
    chosen = rng.choice(len(items), size=batch_size, replace=replace)
    return _to_batch([items[i] for i in chosen], with_replacement=replace)


def _draw(items, n, rng):
    chosen = rng.choice(len(items), size=min(n, len(items)), replace=False)
    return [items[i] for i in chosen]


def select_cross_task_tuples(buffer, n_per_task, rng):
    """Pick up to n samples per stored task (a task the reservoir has thinned
    below n gives all it stores); the caller caches the result so the
    selection stays fixed until the next task boundary."""
    selection = {}
    for t in buffer.stored_tasks():
        selection[t] = _to_batch(_draw(buffer.task_items(t), n_per_task, rng))
    return selection


def select_pseudo_task_tuples(buffer, class_order, new_task_threshold,
                              n_per_task, n_per_class, rng):
    """Task-free selection over pseudo-tasks of ``new_task_threshold`` classes.

    Pseudo-task p (1-based) covers classes class_order[(p-1)S : pS].
    Anchors take up to ``n_per_class`` stored samples per class; tuples take
    up to ``n_per_task`` samples across the pseudo-task. Classes evicted
    from the reservoir simply contribute fewer samples.
    """
    s = new_task_threshold
    n_complete = len(class_order) // s
    anchors, tuples = {}, {}
    for p in range(1, n_complete + 1):
        classes = class_order[(p - 1) * s: p * s]
        a_items = []
        pool = []
        for c in classes:
            stored = buffer.label_items(c)
            pool.extend(stored)
            if stored:
                a_items.extend(_draw(stored, n_per_class, rng))
        if pool:
            tuples[p] = _to_batch(_draw(pool, n_per_task, rng))
        if a_items:
            anchors[p] = _to_batch(a_items)
    return anchors, tuples

