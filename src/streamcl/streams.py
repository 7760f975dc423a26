"""Synthetic nonstationary task streams, augmentation, and evaluation metrics.

Streams are split-protocol: disjoint class sets per task, one training pass
per task. Two generators are built in (class-conditional Gaussian blobs and
per-task-rotated gratings, the latter engineered for cross-task
interference); a third loads user-supplied arrays from a directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .tensor import InvalidConfig

STREAM_KINDS = ("gaussian_blobs", "rotated_patterns", "tiny_images")
AUGMENT_OPS = ("crop_pad", "hflip")
AUGMENT_APPLY = ("replay_only", "all", "none")

CROP_PAD = 2
NO_DRAW = (CROP_PAD, CROP_PAD, 0)  # the (ow, oh, flip) draw of a row left as it is

# Generator constants, calibrated so desk-scale tasks are learnable in one
# pass yet interfere enough across tasks for forgetting to be measurable.
BLOB_NOISE = 0.25
GRATING_NOISE = 0.6
GRATING_JITTER_DEG = 4.0


class IncompleteMatrix(ValueError):
    """Metrics need every lower-triangular accuracy entry."""


@dataclass
class Batch:
    """Rows of samples: a task's train or test set, a stream batch or a replay
    draw. ``task_ids`` are 1-based, as in the buffers; ``with_replacement``
    flags a replay draw that had to repeat stored samples."""

    xs: np.ndarray
    ys: np.ndarray
    task_ids: np.ndarray
    indices: np.ndarray
    with_replacement: bool = False

    def __len__(self):
        return len(self.ys)


@dataclass
class Task:
    task_id: int
    class_ids: tuple
    train: Batch
    test: Batch


@dataclass
class TaskStream:
    kind: str
    tasks: list
    dims: int
    channels: int

    @property
    def n_tasks(self):
        return len(self.tasks)

    @property
    def n_classes(self):
        return sum(len(t.class_ids) for t in self.tasks)

    @property
    def total_samples(self):
        return sum(len(t.train) + len(t.test) for t in self.tasks)

    def train_batches(self, task_id, batch_size):
        """Single-pass minibatches in stream order."""
        train = self.tasks[task_id].train
        for start in range(0, len(train), batch_size):
            sl = slice(start, start + batch_size)
            yield Batch(train.xs[sl], train.ys[sl], train.task_ids[sl], train.indices[sl])


def generate_stream(kind, n_tasks, classes_per_task, samples_per_task,
                    test_samples, dims, channels, seed, data_dir=None):
    """Deterministic stream for a seed; class sets are pairwise disjoint.

    Each set is rendered in array passes that draw from ``rng`` in the order
    of an image-by-image render (per image: grating phase, jitter, noise).
    """
    if kind not in STREAM_KINDS:
        raise InvalidConfig(f"unknown stream kind {kind!r}")
    if dims % 16:
        raise InvalidConfig("image dims must be divisible by 16")
    if classes_per_task < 2:
        raise InvalidConfig("need at least 2 classes per task")
    if kind == "tiny_images":
        return _load_tiny_images(n_tasks, classes_per_task, samples_per_task,
                                 test_samples, dims, channels, seed, data_dir)
    rng = np.random.default_rng(seed)
    total_classes = n_tasks * classes_per_task
    axis = np.arange(dims) - (dims - 1) / 2.0
    u, v = np.meshgrid(axis, axis, indexing="ij")
    image = (channels, dims, dims)
    if kind == "gaussian_blobs":
        centers = rng.uniform(-dims / 4, dims / 4, size=(total_classes, 2))
        sigmas = rng.uniform(dims / 8, dims / 5, size=total_classes)
        weights = rng.uniform(0.5, 1.5, size=(total_classes, channels))
        means = np.empty((total_classes,) + image)
        for c in range(total_classes):
            bump = np.exp(-(((u - centers[c, 0]) ** 2) + ((v - centers[c, 1]) ** 2))
                          / (2 * sigmas[c] ** 2))
            means[c] = weights[c][:, None, None] * bump

        def render(ys):
            # one call draws the same normals as one call per image
            return means[ys] + BLOB_NOISE * rng.normal(size=(len(ys),) + image)
    else:
        freqs = 2.0 + 2.0 * np.arange(classes_per_task)
        jitter = np.deg2rad(GRATING_JITTER_DEG)

        def render(ys):
            task, slot = np.divmod(ys[:, None, None], classes_per_task)
            phase, a = np.empty((2, len(ys), 1, 1))
            noise = np.empty((len(ys),) + image)
            for i in range(len(ys)):
                phase[i] = rng.uniform(0, 2 * np.pi)
                a[i] = rng.normal(scale=jitter)
                noise[i] = rng.normal(size=image)
            a += task * np.pi / n_tasks
            wave = np.sin(2 * np.pi * freqs[slot] * (u * np.cos(a) + v * np.sin(a)) / dims + phase)
            return wave[:, None] + GRATING_NOISE * noise

    tasks = []
    next_index = 0
    for t in range(n_tasks):
        class_ids = tuple(range(t * classes_per_task, (t + 1) * classes_per_task))
        sets = []
        for count in (samples_per_task, test_samples):
            ys = rng.integers(0, classes_per_task, size=count) + t * classes_per_task
            idx = np.arange(next_index, next_index + count)
            next_index += count
            sets.append(Batch(render(ys), ys, np.full(count, t + 1), idx))
        tasks.append(Task(t, class_ids, sets[0], sets[1]))
    return TaskStream(kind, tasks, dims, channels)


def _read(path, parse):
    """``parse`` applied to the open file; an unreadable file is a config error."""
    try:
        with open(path, "rb") as fh:
            return parse(fh)
    except (OSError, ValueError, EOFError) as exc:
        raise InvalidConfig(f"cannot read {path}: {exc}") from None


def _load_tiny_images(n_tasks, classes_per_task, samples_per_task, test_samples,
                      dims, channels, seed, data_dir):
    if not data_dir:
        raise InvalidConfig("tiny_images needs stream.data_dir")
    img_path = os.path.join(data_dir, "images.npy")
    lbl_path = os.path.join(data_dir, "labels.txt")
    if not (os.path.exists(img_path) and os.path.exists(lbl_path)):
        raise InvalidConfig(f"{data_dir} must hold images.npy and labels.txt")
    # read_array takes a plain .npy array only: no pickles, no .npz archive
    images = _read(img_path, lambda fh: np.lib.format.read_array(fh).astype(np.float64))
    labels = _read(lbl_path, lambda fh: np.array([int(tok) for tok in fh.read().split()]))
    if images.ndim != 4 or images.shape[0] != labels.size:
        raise InvalidConfig("images.npy must be (N,C,W,H) matching labels.txt")
    if not np.isfinite(images).all():
        raise InvalidConfig(f"{img_path} holds non-finite values")
    if images.shape[1] != channels or images.shape[2] != dims or images.shape[3] != dims:
        raise InvalidConfig(
            f"images are {images.shape[1:]}, config wants ({channels},{dims},{dims})")
    # classes are numbered by rank, so task t holds classes t*cpt .. (t+1)*cpt - 1
    classes, labels = np.unique(labels, return_inverse=True)
    if classes.size < n_tasks * classes_per_task:
        raise InvalidConfig("not enough classes in the directory for the split")
    rng = np.random.default_rng(seed)
    tasks = []
    next_index = 0
    for t in range(n_tasks):
        class_ids = tuple(range(t * classes_per_task, (t + 1) * classes_per_task))
        pool = np.flatnonzero(labels // classes_per_task == t)
        pool = rng.permutation(pool)
        need = samples_per_task + test_samples
        if pool.size < need:
            raise InvalidConfig(f"task {t} has {pool.size} samples, needs {need}")
        sets = []
        offset = 0
        for count in (samples_per_task, test_samples):
            sel = pool[offset:offset + count]
            offset += count
            idx = np.arange(next_index, next_index + count)
            next_index += count
            sets.append(Batch(images[sel].copy(), labels[sel].copy(), np.full(count, t + 1), idx))
        tasks.append(Task(t, class_ids, sets[0], sets[1]))
    return TaskStream("tiny_images", tasks, dims, channels)


# augmentation ---------------------------------------------------------------

def augment_batch(xs, ops, apply, rng, is_replay, target_dims=None):
    """Each row's label-preserving augmentation draw, ``(ow, oh, flip)`` into
    its zero-padded input (:data:`NO_DRAW` if left as it is); geometric ops hit
    replay data only in ``replay_only`` mode. :func:`apply_draws` makes the rows."""
    # target_dims is unused; the benchmark's tracer still passes it
    for op in ops:
        if op not in AUGMENT_OPS:
            raise InvalidConfig(f"unknown augmentation {op!r}")
    if apply not in AUGMENT_APPLY:
        raise InvalidConfig(f"unknown augmentation policy {apply!r}")
    draws = np.tile(NO_DRAW, (len(xs), 1))
    if apply == "none" or (apply == "replay_only" and not is_replay):
        return draws
    if "crop_pad" in ops:
        draws[:, :2] = rng.integers(0, 2 * CROP_PAD + 1, size=(len(xs), 2))
    if "hflip" in ops:
        draws[:, 2] = rng.random(len(xs)) < 0.5
    return draws


def apply_draws(xs, draws):
    """Rows ``xs`` each under its draw ``(ow, oh, flip)``: zero-padded by
    CROP_PAD, cropped at (ow, oh) and, if ``flip``, flipped along W."""
    w, h = xs.shape[2:]
    padded = np.pad(xs, ((0, 0), (0, 0), (CROP_PAD, CROP_PAD), (CROP_PAD, CROP_PAD)))
    out = np.empty(xs.shape)
    for i, (ow, oh, flip) in enumerate(draws.tolist()):
        row = padded[i, :, ow:ow + w, oh:oh + h]
        out[i] = row[:, ::-1] if flip else row
    return out


# metrics ---------------------------------------------------------------------

class AccuracyMatrix:
    """Lower-triangular task-by-task accuracy; row i lands after task i."""

    def __init__(self, n_tasks):
        self.n_tasks = n_tasks
        self.a = np.full((n_tasks, n_tasks), np.nan)

    def set_entry(self, trained_upto, task, value):
        if task > trained_upto:
            raise IncompleteMatrix("upper-triangular entries are undefined")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"accuracy {value} outside [0,1]")
        self.a[trained_upto, task] = value

    def row(self, i):
        return self.a[i, :i + 1]

    @property
    def complete(self):
        return all(np.isfinite(self.a[i, j])
                   for i in range(self.n_tasks) for j in range(i + 1))

    def csv_lines(self):
        return [",".join(f"{v:.6f}" for v in self.row(i)) for i in range(self.n_tasks)]


def compute_metrics(matrix):
    """Final-row accuracy (ACC), forgetting (FM), learning accuracy (LA).

    FM averages, over all but the last task, the gap between the best
    accuracy any earlier-trained model reached on that task and the final
    model's accuracy; it goes negative under backward transfer.
    """
    a = matrix.a if isinstance(matrix, AccuracyMatrix) else np.asarray(matrix)
    t = a.shape[0]
    for i in range(t):
        if not np.all(np.isfinite(a[i, :i + 1])):
            raise IncompleteMatrix(f"row {i} incomplete")
    acc = float(np.mean(a[t - 1, :]))
    la = float(np.mean(np.diag(a)))
    if t == 1:
        return acc, 0.0, la
    gaps = []
    for j in range(t - 1):
        best_earlier = np.nanmax(a[j:t - 1, j])
        gaps.append(best_earlier - a[t - 1, j])
    return acc, float(np.mean(gaps)), la
