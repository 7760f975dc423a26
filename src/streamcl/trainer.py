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
import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .encoder import MultiScaleEncoder, StoredPyramidEncoder
from .losses import (
    DistillTupleSet,
    LossWeights,
    build_tuple_set,
    structurewise_pairs,
    tf_pair_indices,
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
from .streams import AccuracyMatrix, augment_batch, compute_metrics, generate_stream
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
        self.config = dict(input_shape=tuple(input_shape), n_classes=n_classes,
                           norm_kind=norm_kind, groups=groups, momentum=momentum,
                           epsilon=epsilon, feature_channels=feature_channels,
                           arch=arch, embedding=embedding)
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

    def __call__(self, h):
        return self.forward(h)

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

    def load_state(self, state):
        mine = self.state()
        if set(mine) != set(state):
            raise InvalidConfig("state dictionaries disagree on keys")
        for k, arr in mine.items():
            arr[...] = state[k]

    def clone(self):
        twin = Classifier(rng=np.random.default_rng(0), **self.config)
        twin.load_state({k: v.copy() for k, v in self.state().items()})
        if not self.training:
            twin.eval()
        return twin

    def state_bytes(self):
        s = self.state()
        return b"".join(s[k].tobytes() for k in sorted(s))


@dataclass
class ExperimentState:
    cfg: object
    stream: object
    encoder: object
    classifier: Classifier
    optimizer: SGD
    buffer: object
    matrix: AccuracyMatrix
    rngs: dict
    teacher: Classifier | None = None
    tuple_set: DistillTupleSet | None = None
    class_order: list = field(default_factory=list)
    pseudo_level: int = 0
    losses_seen: list = field(default_factory=list)


def _features(state, xs, indices):
    """Aggregated encoder features as a plain array (the encoder is frozen,
    so nothing upstream ever needs gradients)."""
    with no_grad():
        out = state.encoder.features(Tensor(xs), state.cfg.encoder.aggregate_mode,
                                     indices=indices)
    return out.data


def _masked_ce(logits, ys, task_ids, class_sets):
    """Multi-head cross-entropy: each sample's logits are restricted to its
    own task's class columns, batch-mean preserved via size weighting."""
    total = None
    n = len(ys)
    for t in np.unique(task_ids):
        rows = np.flatnonzero(task_ids == t)
        cols = np.asarray(class_sets[int(t)])
        local = take(logits, np.ix_(rows, cols))
        local_ys = np.searchsorted(cols, ys[rows])
        part = losses.ce_loss(local, local_ys) * (len(rows) / n)
        total = part if total is None else total + part
    return total


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
                cfg.encoder.stage_channels)
            if encoder.sample_count < stream.total_samples:
                raise InvalidConfig("pyramid file covers fewer samples than the stream")
        rng_init = np.random.default_rng(ss_init.spawn(1)[0])
        arch = "full" if cfg.encoder.aggregate_mode == "top_down" else "head_only"
        in_shape = self._feature_shape(stream, encoder)
        classifier = Classifier(in_shape, stream.n_classes, cfg.model.norm_kind,
                                cfg.model.groups, cfg.model.momentum, cfg.model.epsilon,
                                rng_init, cfg.model.feature_channels, arch,
                                cfg.loss.embedding)
        if cfg.replay.policy == "ring":
            buffer = RingBuffer(cfg.replay.capacity)
        else:
            buffer = ReservoirBuffer(cfg.replay.capacity)
        return ExperimentState(
            cfg=cfg, stream=stream, encoder=encoder, classifier=classifier,
            optimizer=SGD(classifier.params(), cfg.train.lr), buffer=buffer,
            matrix=AccuracyMatrix(stream.n_tasks),
            rngs={"data": np.random.default_rng(ss_data),
                  "buffer": np.random.default_rng(ss_buffer),
                  "augment": np.random.default_rng(ss_augment)})

    def _feature_shape(self, stream, encoder):
        probe = Tensor(np.zeros((1, stream.channels, stream.dims, stream.dims)))
        with no_grad():
            out = encoder.features(probe, self.cfg.encoder.aggregate_mode, indices=np.array([0]))
        return out.shape[1:]

    # loss plumbing ------------------------------------------------------

    def _weights(self):
        c = self.cfg.loss
        return LossWeights(c.lambda_dctn, c.lambda_dcsd, c.tau_dctn,
                           c.tau_teacher, c.tau_student)

    def _class_sets(self, stream):
        return {t.task_id + 1: sorted(t.class_ids) for t in stream.tasks}

    def _ce(self, state, logits, ys, task_ids):
        if self.cfg.model.head_mode == "multi":
            return _masked_ce(logits, ys, task_ids, self._class_sets(state.stream))
        return losses.ce_loss(logits, ys)

    # training -----------------------------------------------------------

    def train_task(self, state, task_idx):
        """One single-pass sweep over a task's batches (0-based index)."""
        cfg = self.cfg
        state.classifier.train()
        task_id = task_idx + 1
        task_free = cfg.loss.distill_variant == "tf"
        weights = self._weights()
        aug = (tuple(cfg.stream.augment_ops), cfg.stream.augment)
        for b, batch in enumerate(state.stream.train_batches(task_idx, cfg.train.batch)):
            xs_stream = augment_batch(batch.xs, aug[0], aug[1], state.rngs["augment"],
                                      is_replay=False, target_dims=cfg.stream.dims)
            h_cur = _features(state, xs_stream, batch.indices)
            replay_ready = cfg.replay.enabled and len(state.buffer) > 0
            rep = None
            for u in range(cfg.train.inner_updates):
                if replay_ready and (rep is None or cfg.train.replay_draw == "per_update"):
                    rbatch = buffer_sample(state.buffer, cfg.replay.replay_batch,
                                           state.rngs["buffer"])
                    rxs = augment_batch(rbatch.xs, aug[0], aug[1], state.rngs["augment"],
                                        is_replay=True, target_dims=cfg.stream.dims)
                    h_rep = _features(state, rxs, rbatch.indices)
                    teacher_logits = None
                    if state.teacher is not None and weights.lambda_dctn > 0:
                        teacher_logits = state.teacher.logits_np(h_rep)
                    rep = (h_rep, rbatch, teacher_logits)
                cur_tasks = np.full(len(batch.ys), task_id)
                rep_logits = rep_ys = teacher_logits = rep_tasks = None
                if rep is not None:
                    h_rep, rbatch, teacher_logits = rep
                    rep_logits = state.classifier.forward(Tensor(h_rep))
                    rep_ys, rep_tasks = rbatch.ys, rbatch.task_ids
                loss, _parts = total_objective(
                    state.classifier.forward(Tensor(h_cur)), batch.ys,
                    rep_logits, rep_ys, teacher_logits, state.tuple_set,
                    state.classifier.embed, weights,
                    ce_fn=lambda lo, ys: self._ce(state, lo, ys, cur_tasks),
                    replay_ce_fn=lambda lo, ys: self._ce(state, lo, ys, rep_tasks))
                state.optimizer.zero_grad()
                loss.backward()
                state.optimizer.step()
                state.losses_seen.append(loss.item())
                _check_finite(state.optimizer.params, task_id, b + 1, len(state.losses_seen))
            if cfg.replay.enabled:
                for i in range(len(batch.ys)):
                    label = int(batch.ys[i])
                    if label not in state.class_order:
                        state.class_order.append(label)
                    state.buffer.insert(batch.xs[i], label, task_id,
                                        int(batch.indices[i]), rng=state.rngs["buffer"])
                if task_free:
                    self._maybe_pseudo_boundary(state)
        return state

    def _needs_snapshot(self):
        cfg = self.cfg
        return cfg.replay.enabled and (cfg.loss.lambda_dctn > 0
                                       or cfg.loss.distill_variant != "none")

    def end_of_task(self, state, finished_task_id):
        """Snapshot and (for the task-aware variants) select fresh tuples."""
        cfg = self.cfg
        if cfg.loss.distill_variant == "tf" or not self._needs_snapshot():
            return state
        state.teacher = state.classifier.clone().eval()
        state.tuple_set = None
        if cfg.loss.distill_variant != "none":
            selection = select_cross_task_tuples(state.buffer, cfg.loss.n_per_task,
                                                 state.rngs["buffer"])
            feats, ids = {}, {}
            for t, batch in selection.items():
                h = _features(state, batch.xs, batch.indices)
                feats[t] = (h, h)
                ids[t] = batch.indices
            pairs = structurewise_pairs(cfg.loss.distill_variant, finished_task_id + 1)
            state.tuple_set = build_tuple_set(finished_task_id, cfg.loss.distill_variant,
                                              cfg.loss.potential_metric, pairs, feats,
                                              state.teacher.embed,
                                              cfg.loss.tau_teacher, sample_ids=ids)
        return state

    def _maybe_pseudo_boundary(self, state):
        """Task-free boundary (called only with replay and the tf variant)."""
        cfg = self.cfg
        u = len(state.buffer.unique_labels())
        level = u // cfg.loss.new_task_classes
        if level <= state.pseudo_level:
            return
        state.pseudo_level = level
        state.teacher = state.classifier.clone().eval()
        anchors, tuples = select_pseudo_task_tuples(
            state.buffer, state.class_order, cfg.loss.new_task_classes,
            cfg.loss.n_per_task, cfg.loss.samples_per_class, state.rngs["buffer"])
        feats = {}
        for p in set(anchors) | set(tuples):
            a = _features(state, anchors[p].xs, anchors[p].indices) if p in anchors else np.zeros((0,))
            z = _features(state, tuples[p].xs, tuples[p].indices) if p in tuples else np.zeros((0,))
            feats[p] = (a, z)
        pairs = [(j - 1, j) for j in tf_pair_indices(u, cfg.loss.new_task_classes)]
        state.tuple_set = build_tuple_set(level, "tf", cfg.loss.potential_metric, pairs,
                                          feats, state.teacher.embed, cfg.loss.tau_teacher)

    # evaluation -----------------------------------------------------------

    def evaluate(self, state, upto_task):
        """Fill matrix row ``upto_task`` (0-based); never mutates state."""
        clf = state.classifier
        class_sets = self._class_sets(state.stream)
        with clf.eval_mode(), no_grad():
            for j in range(upto_task + 1):
                test = state.stream.tasks[j].test
                correct = 0
                for start in range(0, len(test), 100):
                    sl = slice(start, start + 100)
                    h = _features(state, test.xs[sl], test.indices[sl])
                    logits = clf.forward(Tensor(h)).data
                    if self.cfg.model.head_mode == "multi":
                        cols = np.asarray(class_sets[j + 1])
                        pred = cols[logits[:, cols].argmax(axis=1)]
                    else:
                        pred = logits.argmax(axis=1)
                    correct += int(np.sum(pred == test.ys[sl]))
                state.matrix.set_entry(upto_task, j, correct / len(test))
        return state.matrix.row(upto_task)


@dataclass
class ExperimentResult:
    seed: int
    matrix: AccuracyMatrix
    metrics: dict
    state: ExperimentState


def run_experiment(cfg, seed):
    """Full seeded run: train every task, evaluate after each, score."""
    trainer = Trainer(cfg, seed)
    state = trainer.build_state()
    kernels_before = state.encoder.kernel_bytes()
    for t in range(state.stream.n_tasks):
        trainer.train_task(state, t)
        trainer.end_of_task(state, t + 1)
        trainer.evaluate(state, t)
    assert state.encoder.kernel_bytes() == kernels_before, "encoder drifted"
    acc, fm, la = compute_metrics(state.matrix)
    return ExperimentResult(seed, state.matrix, {"acc": acc, "fm": fm, "la": la}, state)


def state_fingerprint(state):
    """Hash of everything evaluation must not touch."""
    h = hashlib.sha256()
    h.update(state.classifier.state_bytes())
    for x, y, t, i in state.buffer.items():
        h.update(x.tobytes())
        h.update(np.int64(y).tobytes() + np.int64(t).tobytes() + np.int64(i).tobytes())
    for name in ("data", "buffer", "augment"):
        h.update(repr(state.rngs[name].bit_generator.state).encode())
    return h.hexdigest()
