"""Online single-pass training harness.

One pass over each task's batches; per incoming batch the composed
objective is optimized for a fixed number of inner updates (each drawing a
fresh replay batch by default), then the raw batch is written to the
buffer. Task boundaries snapshot the classifier and select the cross-task
tuples used by structure-wise distillation; in the task-free setting the
same hook fires at pseudo-boundaries inferred from the count of distinct
classes in the reservoir.

Task ids are 1-based inside buffers and distillation bookkeeping (matching
the loss index rules); accuracy-matrix rows stay 0-based.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import losses
from .encoder import MultiScaleEncoder, StoredPyramidEncoder
from .losses import (
    DistillTupleSet,
    build_tuple_set,
    structurewise_pairs,
    total_objective,
)
from .memory import (
    ReservoirBuffer,
    RingBuffer,
    buffer_sample,
    select_cross_task_tuples,
    select_pseudo_task_tuples,
)
from .norms import make_norm
from .streams import (NO_DRAW, AccuracyMatrix, apply_draws, augment_batch, compute_metrics,
                      generate_stream)
from .tensor import (
    InvalidConfig,
    Parameter,
    Tensor,
    conv2d,
    matmul,
    no_grad,
    relu,
    reshape,
    take,
)
from .worker import feature_worker, one_blas_thread, pin_malloc_thresholds


class Diverged(RuntimeError):
    """Training drove a parameter to NaN or infinity."""


def _check_finite(params, task_id, batch, update):
    """Raise :class:`Diverged` naming the first non-finite parameter.

    The loss alone cannot show divergence: ``relu`` maps NaN activations to
    0, so the logits and the loss of a NaN-ridden classifier can stay finite.
    """
    for p in params:
        if not np.isfinite(p.data).all():
            raise Diverged(f"training diverged at task {task_id}, batch {batch}, "
                           f"update {update}: {p.name} is not finite")


class SGD:
    """Plain stochastic gradient descent, no momentum or weight decay."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * p.grad


def _he(rng, shape, fan_in):
    return rng.normal(scale=np.sqrt(2.0 / fan_in), size=shape)


class Classifier:
    """The trainable model on top of aggregated encoder features.

    ``full`` architecture (top-down aggregation): two stride-2 convolution
    blocks with the configured normalization, then a linear head on the
    flattened map. ``head_only`` (standard / bottom-up aggregation): the
    flattened features go straight into the classification layer.
    """

    def __init__(self, input_shape, n_classes, norm_kind, groups, momentum,
                 epsilon, rng, feature_channels=16, arch="full", embedding="logits"):
        c, w, h = input_shape
        self.arch = arch
        self.embedding = embedding
        self.training = True
        self._norms = []
        if arch == "full":
            if w % 4 or h % 4:
                raise InvalidConfig(f"full classifier needs dims divisible by 4, got {w}x{h}")
            f = feature_channels
            self.conv1 = Parameter(_he(rng, (f, c, 3, 3), c * 9), "clf.conv1")
            self.norm1 = make_norm(norm_kind, f, groups, momentum, epsilon, prefix="clf.norm1")
            self.conv2 = Parameter(_he(rng, (f, f, 3, 3), f * 9), "clf.conv2")
            self.norm2 = make_norm(norm_kind, f, groups, momentum, epsilon, prefix="clf.norm2")
            self._norms = [self.norm1, self.norm2]
            self.flat_dim = f * (w // 4) * (h // 4)
        elif arch == "head_only":
            self.flat_dim = c * w * h
        else:
            raise InvalidConfig(f"unknown classifier arch {arch!r}")
        self.head_w = Parameter(_he(rng, (self.flat_dim, n_classes), self.flat_dim), "clf.head_w")
        self.head_b = Parameter(np.zeros((1, n_classes)), "clf.head_b")

    def params(self):
        out = []
        if self.arch == "full":
            out += [self.conv1, self.conv2]
            out += self.norm1.params() + self.norm2.params()
        out += [self.head_w, self.head_b]
        return out

    def train(self):
        self.training = True
        for n in self._norms:
            n.train()
        return self

    def eval(self):
        self.training = False
        for n in self._norms:
            n.eval()
        return self

    @contextlib.contextmanager
    def eval_mode(self):
        """Eval-mode block; the previous mode comes back on exit."""
        was_training = self.training
        self.eval()
        try:
            yield
        finally:
            if was_training:
                self.train()

    def penultimate(self, h):
        if self.arch == "full":
            y = relu(self.norm1(conv2d(h, self.conv1, stride=2, padding=1)))
            y = relu(self.norm2(conv2d(y, self.conv2, stride=2, padding=1)))
        else:
            y = h
        return reshape(y, (h.shape[0], self.flat_dim))

    def forward(self, h):
        return matmul(self.penultimate(h), self.head_w) + self.head_b

    def embed(self, feats):
        """Embedding rows for the potential function, eval-mode forward.

        Gradients still flow; only the normalization statistics source is
        pinned so cached teacher potentials stay comparable.
        """
        h = feats if isinstance(feats, Tensor) else Tensor(feats)
        with self.eval_mode():
            return self.forward(h) if self.embedding == "logits" else self.penultimate(h)

    def logits_np(self, feats):
        """Eval-mode logits as a plain array, with no graph recorded."""
        with self.eval_mode(), no_grad():
            return self.forward(Tensor(feats)).data

    def state(self):
        out = {p.name: p.data for p in self.params()}
        for n in self._norms:
            out.update(n.buffers())
        return out

    def clone(self):
        """A deep copy without the gradient arrays, which a frozen copy never reads."""
        return copy.deepcopy(self, {id(p.grad): None for p in self.params() if p.grad is not None})

    def state_bytes(self):
        s = self.state()
        return b"".join(s[k].tobytes() for k in sorted(s))


@dataclass
class ExperimentState:
    """Everything one seeded run holds. ``features(xs, indices, draws=None)``
    gives the features of samples ``indices`` with inputs ``xs``, training rows
    each under its augmentation draw, test rows with ``draws`` None: a
    :class:`FeatureEncoder` where this process encodes, or the feature
    worker's pipe (``worker.feature_worker``). ``test_features`` (each task's
    test set) is an exact cache of the frozen encoder; no output depends on it."""

    cfg: object
    stream: object
    encoder: object
    classifier: Classifier
    optimizer: SGD
    buffer: object
    matrix: AccuracyMatrix
    heads: np.ndarray  # row t - 1: the sorted class columns task t may predict
    rngs: dict
    features: object
    teacher: Classifier | None = None
    tuple_set: DistillTupleSet | None = None
    class_order: list = field(default_factory=list)
    pseudo_level: int = 0
    losses_seen: list = field(default_factory=list)
    test_features: dict = field(default_factory=dict)  # task index -> its test set's features


ENCODE_ROWS = 32  # rows per encoder call at most
ENCODE_BYTES = 256 * 1024  # feature bytes per encoder call; the im2col buffers grow with them
MEMO_ROWS = 512  # entries of the train-side feature memo


def feature_shape(cfg):
    """(C, W, H) of the aggregated features: top-down ends at the first level
    (or at the extra projection's channels), the other modes at the deepest."""
    enc, dims = cfg.encoder, cfg.stream.dims
    if enc.aggregate_mode == "top_down":
        return (enc.aggregate_channels or enc.stage_channels[0], dims // 2, dims // 2)
    return (enc.stage_channels[3], dims // 16, dims // 16)


def _padded_rows(b, dims):
    """Smallest row count >= ``b`` for which the deepest level's GEMMs get a
    column count, rows * (dims/16)**2, that is a multiple of 8 and at least 16.
    OpenBLAS then runs only its full-width kernels, so a row's features do not
    depend on the rows that share its call."""
    per_row = (dims // 16) ** 2
    rows = b
    while rows * per_row % 8 or rows * per_row < 16:
        rows += 1
    return rows


def _block_rows(cfg):
    """Rows per encoder call: as many, from 1 to ENCODE_ROWS, as have
    ENCODE_BYTES of features, raised to a count that :func:`_padded_rows`
    leaves unpadded. ENCODE_ROWS itself needs no padding at any dims, so the
    cap holds."""
    rows = ENCODE_BYTES // (8 * int(np.prod(feature_shape(cfg))))
    return _padded_rows(min(max(rows, 1), ENCODE_ROWS), cfg.stream.dims)


def _encode(encoder, cfg, xs, indices):
    """Aggregated encoder features as a plain array, bitwise independent of
    the batch: blocks of :func:`_block_rows` rows, each padded with zero rows
    (sample index 0) to :func:`_padded_rows`, and the padding dropped. The
    encoder is frozen, so nothing upstream ever needs gradients."""
    out = np.empty((len(xs),) + feature_shape(cfg))
    dims, block = cfg.stream.dims, _block_rows(cfg)
    for start in range(0, len(xs), block):
        sl = slice(start, start + block)
        x, idx = xs[sl], indices[sl]
        b = len(x)
        pad = _padded_rows(b, dims) - b
        if pad:
            x = np.concatenate([x, np.zeros((pad,) + x.shape[1:])])
            idx = np.concatenate([idx, np.zeros(pad, dtype=idx.dtype)])
        with no_grad():
            h = encoder.features(Tensor(x), cfg.encoder.aggregate_mode, indices=idx)
        out[sl] = h.data[:b]
    return out


class FeatureMemo:
    """Exact memo of training-row features: an insertion-ordered dict from
    (sample index, ow, oh, flip) to that row's own feature copy, holding at
    most ``rows`` entries. A miss is inserted, a hit keeps its place, and past
    ``rows`` entries the oldest insertion is dropped. The key holds no input
    bytes: a sample index's stored input never changes, and a row is a pure
    function of that input and its augmentation draw, so only a miss is made
    (``apply_draws``) and encoded.
    """

    def __init__(self, rows):
        self.rows = rows
        self.entries = OrderedDict()

    def features(self, xs, indices, draws, encode):
        """Features of the inputs ``xs``, sample ``indices`` under ``draws``;
        ``encode(rows, indices)`` runs once on the drawn rows the memo lacks,
        each distinct key once: a key repeated within the call takes the
        features of its first row."""
        keys = [(i, *d) for i, d in zip(indices.tolist(), draws.tolist())]
        found = [self.entries.get(k) for k in keys]
        first = {}  # each missing key -> the row of its first copy
        for r, (k, f) in enumerate(zip(keys, found)):
            if f is None:
                first.setdefault(k, r)
        if first:
            rows = list(first.values())
            fresh = dict(zip(first, encode(apply_draws(xs[rows], draws[rows]), indices[rows])))
            for k, f in fresh.items():
                self.entries[k] = f.copy()  # a view would keep the whole encode block alive
                if len(self.entries) > self.rows:
                    self.entries.popitem(last=False)
            found = [fresh[k] if f is None else f for k, f in zip(keys, found)]
        return np.stack(found)


class FeatureEncoder:
    """``state.features`` of a process that encodes: training rows (stream,
    replay and snapshot), each the draw ``draws[i]``, through a
    :class:`FeatureMemo` of MEMO_ROWS entries, test rows (``draws`` None)
    afresh; see :func:`_encode`."""

    def __init__(self, encoder, cfg):
        self.encoder, self.cfg, self.memo = encoder, cfg, FeatureMemo(MEMO_ROWS)

    def __call__(self, xs, indices, draws=None):
        encode = functools.partial(_encode, self.encoder, self.cfg)
        return encode(xs, indices) if draws is None else self.memo.features(xs, indices, draws, encode)


class _Update(NamedTuple):
    """One inner update's data: stream batch ``batch`` (the ``batch_no``-th of
    its task) with features ``h_cur``, and the replay draw ``rep = (rbatch,
    h_rep)``, None without replay; a reused draw is the same object."""

    batch_no: int
    batch: object
    h_cur: np.ndarray
    rep: tuple | None


class _Snapshot(NamedTuple):
    """A boundary's data: the live pairs as ``(anchor task, tuple task,
    anchor rows, tuple rows)`` into the stacked ``features``; ``pairs`` None
    freezes a teacher without a tuple set."""

    pairs: list | None
    features: np.ndarray | None = None


def _head_ce(logits, ys, task_ids, heads):
    """Cross-entropy of each row over its own head, the class columns
    ``heads[task_id - 1]``; the label becomes its position in that row."""
    cols = heads[task_ids - 1]
    hit = cols == ys[:, None]
    if not hit.any(axis=1).all():
        raise losses.LabelOutOfRange("a label lies outside its task's head")
    local = take(logits, (np.arange(len(cols))[:, None], cols))
    return losses.ce_loss(local, hit.argmax(axis=1))


class Trainer:
    """Binds one config to the stream/model/buffer lifecycle."""

    def __init__(self, cfg, seed):
        self.cfg = cfg
        self.seed = seed

    # construction -----------------------------------------------------

    def build_state(self):
        cfg = self.cfg
        base = np.random.SeedSequence(self.seed)
        ss_data, ss_init, ss_buffer, ss_augment = base.spawn(4)
        stream = generate_stream(cfg.stream.kind, cfg.stream.tasks,
                                 cfg.stream.classes_per_task, cfg.stream.samples_per_task,
                                 cfg.stream.test_samples, cfg.stream.dims,
                                 cfg.stream.channels, seed=ss_data,
                                 data_dir=cfg.stream.data_dir or None)
        encoder = MultiScaleEncoder.from_seed(ss_init, cfg.stream.channels,
                                              cfg.encoder.stage_channels,
                                              cfg.encoder.aggregate_channels)
        if cfg.encoder.pyramid_file:
            encoder = StoredPyramidEncoder.from_file(
                cfg.encoder.pyramid_file, encoder.mixer, cfg.stream.channels,
                cfg.encoder.stage_channels, cfg.stream.dims)
            if encoder.sample_count < stream.total_samples:
                raise InvalidConfig("pyramid file covers fewer samples than the stream")
        rng_init = np.random.default_rng(ss_init.spawn(1)[0])
        arch = "full" if cfg.encoder.aggregate_mode == "top_down" else "head_only"
        classifier = Classifier(feature_shape(cfg), stream.n_classes, cfg.model.norm_kind,
                                cfg.model.groups, cfg.model.momentum, cfg.model.epsilon,
                                rng_init, cfg.model.feature_channels, arch,
                                cfg.loss.embedding)
        heads = np.array([sorted(t.class_ids) if cfg.model.head_mode == "multi"
                          else range(stream.n_classes) for t in stream.tasks])
        if cfg.replay.policy == "ring":
            buffer = RingBuffer(cfg.replay.capacity)
        else:
            buffer = ReservoirBuffer(cfg.replay.capacity)
        return ExperimentState(
            cfg=cfg, stream=stream, encoder=encoder, classifier=classifier,
            optimizer=SGD(classifier.params(), cfg.train.lr), buffer=buffer,
            matrix=AccuracyMatrix(stream.n_tasks), heads=heads,
            rngs={"buffer": np.random.default_rng(ss_buffer),
                  "augment": np.random.default_rng(ss_augment)},
            features=FeatureEncoder(encoder, cfg))

    # data side: model-free generators that a run's main process and its
    # feature worker both execute ----------------------------------------------

    def _train_steps(self, state, task_idx):
        """The data side of :meth:`train_task`: per stream batch, its
        augmentation and features, one :class:`_Update` per inner update (each
        drawing its replay batch as ``train.replay_draw`` says), then the
        buffer inserts and, task-free, a pseudo-boundary's :class:`_Snapshot`."""
        cfg = self.cfg
        aug = (tuple(cfg.stream.augment_ops), cfg.stream.augment)
        for b, batch in enumerate(state.stream.train_batches(task_idx, cfg.train.batch)):
            draws = augment_batch(batch.xs, aug[0], aug[1], state.rngs["augment"],
                                  is_replay=False, target_dims=cfg.stream.dims)
            h_cur = state.features(batch.xs, batch.indices, draws)
            replay_ready = cfg.replay.enabled and len(state.buffer) > 0
            rep = None
            for _ in range(cfg.train.inner_updates):
                if replay_ready and (rep is None or cfg.train.replay_draw == "per_update"):
                    rbatch = buffer_sample(state.buffer, cfg.replay.replay_batch,
                                           state.rngs["buffer"])
                    rdraws = augment_batch(rbatch.xs, aug[0], aug[1], state.rngs["augment"],
                                           is_replay=True, target_dims=cfg.stream.dims)
                    rep = (rbatch, state.features(rbatch.xs, rbatch.indices, rdraws))
                yield _Update(b + 1, batch, h_cur, rep)
            if cfg.replay.enabled:
                for i in range(len(batch.ys)):
                    label = int(batch.ys[i])
                    if label not in state.class_order:
                        state.class_order.append(label)
                    state.buffer.insert(batch.xs[i], label, batch.task_ids[i],
                                        batch.indices[i], rng=state.rngs["buffer"])
                if cfg.loss.distill_variant == "tf":
                    yield from self._pseudo_boundary(state)

    def _pseudo_boundary(self, state):
        """Task-free boundary (only with replay and the tf variant)."""
        cfg = self.cfg
        level = len(state.buffer.unique_labels()) // cfg.loss.new_task_classes
        if level <= state.pseudo_level:
            return
        state.pseudo_level = level
        anchors, tuples = select_pseudo_task_tuples(
            state.buffer, state.class_order, cfg.loss.new_task_classes,
            cfg.loss.n_per_task, cfg.loss.samples_per_class, state.rngs["buffer"])
        yield self._boundary(state, structurewise_pairs("csd", level + 1), anchors, tuples)

    def _task_boundary(self, state, finished_task_id):
        """The data side of :meth:`end_of_task`: a teacher, and for the
        task-aware variants fresh tuples, or nothing."""
        cfg = self.cfg
        variant = cfg.loss.distill_variant
        if variant == "tf" or not cfg.replay.enabled or (
                variant == "none" and cfg.loss.lambda_dctn <= 0):
            return
        if variant == "none":
            yield _Snapshot(None)
            return
        selection = select_cross_task_tuples(state.buffer, cfg.loss.n_per_task,
                                             state.rngs["buffer"])
        yield self._boundary(state, structurewise_pairs(variant, finished_task_id + 1),
                             selection, selection)

    def _boundary(self, state, pairs, anchors, tuples):
        """The :class:`_Snapshot` of ``pairs``, in which each buffer sample that a
        live pair names is encoded and stacked once.

        ``anchors`` and ``tuples`` map a task id to its selected buffer batch; a
        pair is live when both of its batches hold rows. The stack holds each
        sample index of the live pairs' batches (anchor batch before tuple
        batch) in order of first appearance, encoded in one call, and each
        batch becomes an integer row array into it.
        """
        live = [(a, z) for a, z in pairs if len(anchors.get(a, ())) and len(tuples.get(z, ()))]
        batches = [b for a, z in live for b in (anchors[a], tuples[z])]
        stack, xs = {}, []  # sample index -> its row of the stack; the stacked inputs
        for b in batches:
            for x, i in zip(b.xs, b.indices.tolist()):
                if i not in stack:
                    stack[i] = len(stack)
                    xs.append(x)
        rows = [np.array([stack[i] for i in b.indices.tolist()]) for b in batches]
        features = state.features(np.stack(xs), np.array(list(stack)),
                                  np.tile(NO_DRAW, (len(stack), 1))) if stack else None
        return _Snapshot([(a, z, ra, rz) for (a, z), ra, rz in zip(live, rows[::2], rows[1::2])],
                         features)

    def _test_sets(self, state, upto_task):
        """The data side of :meth:`evaluate`: each task index up to
        ``upto_task``, its test set encoded, unaugmented, the first time."""
        for j in range(upto_task + 1):
            if j not in state.test_features:
                test = state.stream.tasks[j].test
                state.test_features[j] = state.features(test.xs, test.indices)
            yield j

    def data_side(self, state):
        """A feature worker's whole run: the data side of :meth:`run`, in its order."""
        for t in range(state.stream.n_tasks):
            for steps in (self._train_steps(state, t), self._task_boundary(state, t + 1),
                          self._test_sets(state, t)):
                deque(steps, maxlen=0)

    # model side -----------------------------------------------------------

    def run(self, state):
        """The model side of a whole run: per task, train, end the task, evaluate.
        This order is the feature pipe's protocol; :meth:`data_side` keeps it."""
        for t in range(state.stream.n_tasks):
            self.train_task(state, t)
            self.end_of_task(state, t + 1)
            self.evaluate(state, t)
        return state

    def train_task(self, state, task_idx):
        """One single-pass sweep over a task's batches (0-based index)."""
        state.classifier.train()
        task_id = task_idx + 1
        rep = teacher_logits = None
        for step in self._train_steps(state, task_idx):
            if isinstance(step, _Snapshot):
                self._snapshot(state, step)
                continue
            if step.rep is not rep:
                rep, teacher_logits = step.rep, None
                if rep is not None and state.teacher is not None and self.cfg.loss.lambda_dctn > 0:
                    teacher_logits = state.teacher.logits_np(rep[1])
            state.losses_seen.append(self._update(state, step.h_cur, step.batch, rep,
                                                  teacher_logits))
            _check_finite(state.optimizer.params, task_id, step.batch_no, len(state.losses_seen))

    def _update(self, state, h_cur, batch, rep, teacher_logits):
        """One SGD step on the composed objective of the stream batch, whose
        features are ``h_cur``, and, given ``rep = (rbatch, h_rep)``, the replay
        batch. Returns the loss value: the step's graph is unreachable once
        this returns, so it is freed before the next update reads any features."""
        rbatch = rep_logits = rep_ys = None
        if rep is not None:
            rbatch, h_rep = rep
            rep_logits, rep_ys = state.classifier.forward(Tensor(h_rep)), rbatch.ys
        loss, _parts = total_objective(
            state.classifier.forward(Tensor(h_cur)), batch.ys,
            rep_logits, rep_ys, teacher_logits, state.tuple_set,
            state.classifier.embed, loss_cfg=self.cfg.loss,
            ce_fn=lambda lo, ys: _head_ce(lo, ys, batch.task_ids, state.heads),
            replay_ce_fn=lambda lo, ys: _head_ce(lo, ys, rbatch.task_ids, state.heads))
        state.optimizer.zero_grad()
        loss.backward()
        state.optimizer.step()
        return loss.item()

    def end_of_task(self, state, finished_task_id):
        """Snapshot and (for the task-aware variants) select fresh tuples."""
        for step in self._task_boundary(state, finished_task_id):
            self._snapshot(state, step)

    def _snapshot(self, state, step):
        """Freeze a deep copy of the classifier as the teacher and, unless
        ``step.pairs`` is None, cache the tuple set of the :class:`_Snapshot`."""
        state.teacher = state.classifier.clone().eval()
        state.tuple_set = None if step.pairs is None else build_tuple_set(
            self.cfg.loss.potential_metric, step.features, step.pairs,
            state.teacher.embed, self.cfg.loss.tau_teacher)

    # evaluation -----------------------------------------------------------

    def evaluate(self, state, upto_task):
        """Fill matrix row ``upto_task`` (0-based). Nothing but the test-feature
        cache changes: each task's test set is encoded once per run, unaugmented."""
        clf = state.classifier
        with clf.eval_mode(), no_grad():
            for j in self._test_sets(state, upto_task):
                test = state.stream.tasks[j].test
                correct = 0
                for start in range(0, len(test), 100):
                    sl = slice(start, start + 100)
                    h = state.test_features[j][sl]
                    logits = clf.forward(Tensor(h)).data
                    cols = state.heads[j]
                    pred = cols[logits[:, cols].argmax(axis=1)]
                    correct += int(np.sum(pred == test.ys[sl]))
                state.matrix.set_entry(upto_task, j, correct / len(test))
        return state.matrix.row(upto_task)


@dataclass
class ExperimentResult:
    seed: int
    matrix: AccuracyMatrix
    metrics: dict
    seed_wall_s: float  # wall time of the run, set-up included
    feature_worker: str  # "1", or "0 (<why the run encoded inline>)"
    blas_threads: int | None  # the OpenBLAS thread count the run set, None if it could not


def run_experiment(cfg, seed):
    """Full seeded run: train every task, evaluate after each, score. The
    run's process is set up in ``worker.py``: its malloc pin, one OpenBLAS
    thread and, where it can, a feature worker that encodes ahead of training."""
    start = time.perf_counter()
    trainer = Trainer(cfg, seed)
    pin_malloc_thresholds()
    with one_blas_thread() as blas_threads:
        state = trainer.build_state()
        with feature_worker(state, lambda: trainer.data_side(state)) as worker:
            trainer.run(state)
    acc, fm, la = compute_metrics(state.matrix)
    return ExperimentResult(seed, state.matrix, {"acc": acc, "fm": fm, "la": la},
                            time.perf_counter() - start, worker, blas_threads)


def state_fingerprint(state):
    """Hash of everything evaluation must not touch."""
    h = hashlib.sha256()
    h.update(state.classifier.state_bytes())
    for x, y, t, i in state.buffer.items():
        h.update(x.tobytes())
        h.update(np.int64(y).tobytes() + np.int64(t).tobytes() + np.int64(i).tobytes())
    for name in ("buffer", "augment"):
        h.update(repr(state.rngs[name].bit_generator.state).encode())
    return h.hexdigest()
