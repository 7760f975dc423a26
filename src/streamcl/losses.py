"""Training objectives: task cross-entropy, replay cross-entropy, point-wise
KL distillation, and the cross-task structure-wise distillation family.

Structure-wise distillation compares relational "potentials": for an anchor
embedding and a tuple of embeddings from another task, the potential is the
softmax over pairwise similarity scores (cosine by default, 2-norm distance
or arccos-based angular similarity as alternatives). The loss is the
cross-entropy between the potentials under a frozen snapshot of the
classifier and under the live one, summed over anchors and task pairs, so
it grows with the number of stored tasks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    InvalidConfig,
    ShapeMismatch,
    Tensor,
    arccos,
    clip,
    log_softmax,
    matmul,
    no_grad,
    power,
    softmax,
    sum_,
    take,
    transpose2d,
)

log = logging.getLogger(__name__)

POTENTIAL_METRICS = ("cosine", "l2", "arccos")
DISTILL_VARIANTS = ("csd", "fsd", "lsd", "tf")

_COS_CLIP = 1.0 - 1e-12
_L2_FLOOR = 1e-24


class LabelOutOfRange(ValueError):
    """A class label falls outside the logit width."""


class ZeroVector(ValueError):
    """Angle-based potentials need nonzero embeddings."""


def ce_loss(logits, labels):
    """Mean over the batch of -log softmax(logits)[label]."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeMismatch(f"logits {logits.shape} vs labels {labels.shape}")
    k = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise LabelOutOfRange(f"labels must lie in [0,{k})")
    picked = take(log_softmax(logits, axis=1), (np.arange(labels.size), labels))
    return sum_(picked) * (-1.0 / labels.size)


def kl_pointwise_distill(teacher_logits, student_logits, tau):
    """KL(softmax(teacher/tau) || softmax(student/tau)), batch-averaged.

    The teacher side is treated as a constant; only the student logits
    carry gradient.
    """
    if tau <= 0:
        raise InvalidConfig("tau must be positive")
    if not isinstance(teacher_logits, Tensor):
        teacher_logits = Tensor(teacher_logits)
    if teacher_logits.shape != student_logits.shape:
        raise ShapeMismatch(f"teacher {teacher_logits.shape} vs student {student_logits.shape}")
    with no_grad():
        lt = log_softmax(teacher_logits, axis=1, temperature=tau).data
    pt = np.exp(lt)
    ls = log_softmax(student_logits, axis=1, temperature=tau)
    b = lt.shape[0]
    cross = sum_(Tensor(pt) * ls) * (-1.0 / b)
    entropy = float(np.sum(pt * lt)) / b
    return cross + entropy


def _normalize_rows(x):
    norms2 = sum_(x * x, axes=(1,), keepdims=True)
    if np.any(norms2.data <= 0.0):
        raise ZeroVector("zero embedding under an angle-based metric")
    return x * power(norms2, -0.5)


def score_matrix(anchors, tuples, metric):
    """Pairwise similarity scores between anchor rows and tuple rows."""
    if metric not in POTENTIAL_METRICS:
        raise InvalidConfig(f"unknown potential metric {metric!r}")
    if anchors.ndim != 2 or tuples.ndim != 2 or anchors.shape[1] != tuples.shape[1]:
        raise ShapeMismatch(f"embeddings disagree: {anchors.shape} vs {tuples.shape}")
    if metric == "l2":
        a2 = sum_(anchors * anchors, axes=(1,), keepdims=True)
        z2 = sum_(tuples * tuples, axes=(1,), keepdims=True)
        cross = matmul(anchors, transpose2d(tuples))
        d2 = a2 + transpose2d(z2) - cross * 2.0
        return power(clip(d2, _L2_FLOOR, np.inf), 0.5)
    cos = matmul(_normalize_rows(anchors), transpose2d(_normalize_rows(tuples)))
    if metric == "cosine":
        return cos
    return 1.0 - arccos(clip(cos, -_COS_CLIP, _COS_CLIP)) * (1.0 / np.pi)


def potential_matrix(anchors, tuples, metric, tau):
    """Row-wise potentials: softmax over each anchor's scores."""
    return softmax(score_matrix(anchors, tuples, metric), axis=1, temperature=tau)


def structurewise_pairs(variant, t):
    """(anchor task, tuple task) index pairs for current task ``t`` (1-based).
    The task-free variant takes the csd pairs at ``t = u // S + 1``."""
    if variant == "csd":
        return [(j - 1, j) for j in range(2, t)]
    if variant == "fsd":
        return [(1, j) for j in range(2, t)]
    if variant == "lsd":
        return [(t - 1, j) for j in range(2, t - 1)]
    raise InvalidConfig(f"no static pair rule for variant {variant!r}")


@dataclass
class DistillPair:
    """One anchor-task/tuple-task pairing: its rows of the stacked features
    and its frozen teacher potential."""

    anchor_task: int
    tuple_task: int
    anchor_rows: np.ndarray
    tuple_rows: np.ndarray
    teacher_potential: np.ndarray


@dataclass
class DistillTupleSet:
    """Boundary selection: every cached sample's features stacked once, and
    the pairs that index into them."""

    metric: str
    features: np.ndarray | None
    pairs: list = field(default_factory=list)


def build_tuple_set(metric, features, pairs, teacher_embed, tau_teacher):
    """Precompute each pair's teacher potential over the stacked features.

    ``pairs`` lists ``(anchor_task, tuple_task, anchor_rows, tuple_rows)``
    with integer row arrays into ``features``. ``teacher_embed`` maps the
    stack to embedding rows (a tensor) under the frozen snapshot, in one
    call. Teacher potentials go through the same :func:`potential_matrix`
    as the student's, without a graph.
    """
    tset = DistillTupleSet(metric, features)
    if not pairs:
        return tset
    with no_grad():
        emb = teacher_embed(features)
        for anchor_task, tuple_task, a_rows, z_rows in pairs:
            teacher = potential_matrix(take(emb, a_rows), take(emb, z_rows), metric, tau_teacher)
            tset.pairs.append(DistillPair(anchor_task, tuple_task, a_rows, z_rows, teacher.data))
    return tset


def structurewise_distill(tuple_set, student_embed, tau_student):
    """Sum of potential cross-entropies over every cached pair.

    ``student_embed`` maps the stacked features to live embedding rows (a
    tensor on the tape) in one call; each pair takes its rows from them.
    An empty pair list contributes zero.
    """
    if tuple_set is None or not tuple_set.pairs:
        log.debug("structure-wise distillation skipped: no stored task pairs")
        return Tensor(0.0)
    metric = tuple_set.metric
    emb = student_embed(tuple_set.features)
    total = None
    for pair in tuple_set.pairs:
        scores = score_matrix(take(emb, pair.anchor_rows), take(emb, pair.tuple_rows), metric)
        logq = log_softmax(scores, axis=1, temperature=tau_student)
        ce = sum_(Tensor(pair.teacher_potential) * logq) * -1.0
        total = ce if total is None else total + ce
    return total


def total_objective(cur_logits, cur_labels, replay_logits=None, replay_labels=None,
                    teacher_replay_logits=None, tuple_set=None, student_embed=None, *,
                    loss_cfg, ce_fn=None, replay_ce_fn=None):
    """Composed loss: current CE + replay CE + weighted distillation terms.

    The config's ``[loss]`` section gives the weights and temperatures.
    Replay terms are skipped while the buffer is empty; distillation terms
    are skipped while no snapshot exists. ``ce_fn``/``replay_ce_fn`` let the
    caller score each row over its own head (the trainer's ``_head_ce``);
    they default to :func:`ce_loss`. Returns the scalar loss and the value
    of each active part.
    """
    ce_fn = ce_fn or ce_loss
    replay_ce_fn = replay_ce_fn or ce_fn
    loss = ce_fn(cur_logits, cur_labels)
    parts = {"ce": loss.item()}
    if replay_logits is not None:
        er = replay_ce_fn(replay_logits, replay_labels)
        parts["er"] = er.item()
        loss = loss + er
        if teacher_replay_logits is not None and loss_cfg.lambda_dctn > 0:
            kd = kl_pointwise_distill(teacher_replay_logits, replay_logits, loss_cfg.tau_dctn)
            parts["dctn"] = kd.item()
            loss = loss + kd * loss_cfg.lambda_dctn
    if tuple_set is not None and student_embed is not None and loss_cfg.lambda_dcsd > 0:
        sw = structurewise_distill(tuple_set, student_embed, loss_cfg.tau_student)
        parts["dcsd"] = sw.item()
        loss = loss + sw * loss_cfg.lambda_dcsd
    return loss, parts
