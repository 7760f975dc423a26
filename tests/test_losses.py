"""Loss family: CE, point-wise KL, potentials, structure-wise distillation."""

import numpy as np
import pytest

import streamcl.tensor as T
from streamcl.config import LossConfig
from streamcl.losses import (
    DISTILL_VARIANTS,
    LabelOutOfRange,
    POTENTIAL_METRICS,
    ZeroVector,
    build_tuple_set,
    ce_loss,
    kl_pointwise_distill,
    potential_matrix,
    score_matrix,
    structurewise_distill,
    structurewise_pairs,
    total_objective,
)
from streamcl.tensor import Parameter, Tensor


def potential_oracle(anchors, tuples, metric, tau):
    """Plain-numpy relational potentials: row-wise softmax of the scores."""
    if metric == "l2":
        scores = np.linalg.norm(anchors[:, None, :] - tuples[None, :, :], axis=2)
    else:
        an = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
        zn = tuples / np.linalg.norm(tuples, axis=1, keepdims=True)
        scores = an @ zn.T
        if metric == "arccos":
            scores = 1.0 - np.arccos(np.clip(scores, -1.0, 1.0)) / np.pi
    z = scores / tau
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def potentials(anchors, tuples, metric, tau):
    """Potential matrix of plain arrays through the tensor path."""
    return potential_matrix(Tensor(anchors), Tensor(tuples), metric, tau).data


def potential_row(anchor, tuples, metric, tau):
    """Potential vector of one anchor against an N-tuple."""
    return potentials(anchor.reshape(1, -1), tuples, metric, tau)[0]


def ce_loop(logits, labels):
    """Scalar-loop cross-entropy oracle."""
    total = 0.0
    for i, y in enumerate(labels):
        z = logits[i] - logits[i].max()
        total += -(z[y] - np.log(np.exp(z).sum()))
    return total / len(labels)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = ce_loss(Tensor(np.zeros((3, 4))), [0, 1, 2])
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = logits[1, 2] = 50.0
        loss = ce_loss(Tensor(logits), [1, 2])
        assert loss.item() < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(7, 5)) * 3
        labels = rng.integers(0, 5, size=7)
        loss = ce_loss(Tensor(logits), labels)
        assert loss.item() == pytest.approx(ce_loop(logits, labels), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            ce_loss(Tensor(np.zeros((2, 3))), [0, 3])

    def test_gradient(self):
        rng = np.random.default_rng(1)
        w = Parameter(rng.normal(size=(4, 3)), "w")
        x = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)
        report = T.finite_difference_check(
            lambda: ce_loss(T.matmul(Tensor(x), w), labels), [w], step=1e-6, tol=1e-6)
        assert report.passed, report


class TestPointwiseKL:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 6))
        kl = kl_pointwise_distill(logits, Tensor(logits.copy()), tau=2.0)
        assert abs(kl.item()) <= 1e-12

    def test_nonnegative_100_trials(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = rng.normal(size=(3, 5)) * rng.uniform(0.5, 4)
            s = rng.normal(size=(3, 5)) * rng.uniform(0.5, 4)
            assert kl_pointwise_distill(t, Tensor(s), tau=2.0).item() >= -1e-15

    def test_hand_case(self):
        # teacher probs (0.75, 0.25) vs student (0.5, 0.5) at tau 1:
        # 0.75 ln 1.5 + 0.25 ln 0.5 = 0.130812...
        t = np.log(np.array([[0.75, 0.25]]))
        s = np.log(np.array([[0.5, 0.5]]))
        kl = kl_pointwise_distill(t, Tensor(s), tau=1.0)
        assert kl.item() == pytest.approx(0.1308, abs=1e-4)

    def test_teacher_carries_no_gradient(self):
        rng = np.random.default_rng(4)
        teacher = Parameter(rng.normal(size=(2, 3)), "t")
        student = Parameter(rng.normal(size=(2, 3)), "s")
        kl_pointwise_distill(teacher, student, tau=2.0).backward()
        assert teacher.grad is None
        assert student.grad is not None

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeMismatch):
            kl_pointwise_distill(np.zeros((2, 3)), Tensor(np.zeros((2, 4))), tau=1.0)


class TestPotential:
    def test_identical_tuple_gives_uniform(self):
        anchor = np.array([1.0, 2.0])
        embs = np.stack([np.array([3.0, 1.0])] * 4)
        for metric in POTENTIAL_METRICS:
            vec = potential_row(anchor, embs, metric, tau=1.0)
            np.testing.assert_allclose(vec, np.full(4, 0.25), atol=1e-12)

    def test_cosine_hand_case(self):
        vec = potential_row(np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, 1.0]]),
                            "cosine", tau=1.0)
        np.testing.assert_allclose(vec, [0.7311, 0.2689], atol=1e-4)

    def test_probability_vector(self):
        rng = np.random.default_rng(5)
        for metric in POTENTIAL_METRICS:
            a = Tensor(rng.normal(size=(3, 8)))
            z = Tensor(rng.normal(size=(5, 8)))
            p = potential_matrix(a, z, metric, tau=2.0)
            assert np.all(p.data >= 0)
            np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-9)

    def test_scale_invariance_of_angle_metrics(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 6))
        z = rng.normal(size=(4, 6))
        sa = a * rng.uniform(0.1, 10, size=(3, 1))
        sz = z * rng.uniform(0.1, 10, size=(4, 1))
        for metric in ("cosine", "arccos"):
            np.testing.assert_allclose(potentials(sa, sz, metric, 1.0),
                                       potentials(a, z, metric, 1.0), atol=1e-9)
        assert not np.allclose(potentials(sa, sz, "l2", 1.0), potentials(a, z, "l2", 1.0),
                               atol=1e-6)

    def test_zero_vector_rejected(self):
        a = Tensor(np.zeros((1, 3)))
        z = Tensor(np.ones((2, 3)))
        for metric in ("cosine", "arccos"):
            with pytest.raises(ZeroVector):
                potential_matrix(a, z, metric, tau=1.0)

    def test_tensor_path_matches_numpy_twin(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 5))
        z = rng.normal(size=(6, 5))
        for metric in POTENTIAL_METRICS:
            for tau in (0.5, 2.0):
                live = potential_matrix(Tensor(a), Tensor(z), metric, tau)
                np.testing.assert_allclose(
                    live.data, potential_oracle(a, z, metric, tau), atol=1e-12)

    def test_matrix_matches_per_anchor_rows(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 4))
        z = rng.normal(size=(5, 4))
        for metric in POTENTIAL_METRICS:
            mat = potential_matrix(Tensor(a), Tensor(z), metric, tau=1.5)
            for i in range(3):
                row = potential_row(a[i], z, metric, tau=1.5)
                np.testing.assert_allclose(mat.data[i], row, atol=1e-10)

    def test_gradient_all_metrics(self):
        rng = np.random.default_rng(9)
        w = Parameter(rng.normal(size=(4, 4)), "w")
        feats = rng.normal(size=(3, 4))
        tuple_feats = rng.normal(size=(3, 4))
        weighting = rng.normal(size=(3, 3))
        for metric in POTENTIAL_METRICS:
            w.grad = None
            report = T.finite_difference_check(
                lambda m=metric: (potential_matrix(
                    T.matmul(Tensor(feats), w), T.matmul(Tensor(tuple_feats), w), m, 2.0)
                    * Tensor(weighting)).sum(),
                [w], step=1e-6, tol=1e-4)
            assert report.passed, (metric, report)


class TestPairRules:
    def test_csd_ranges(self):
        assert structurewise_pairs("csd", 2) == []
        assert structurewise_pairs("csd", 3) == [(1, 2)]
        assert structurewise_pairs("csd", 5) == [(1, 2), (2, 3), (3, 4)]

    def test_fsd_ranges(self):
        assert structurewise_pairs("fsd", 4) == [(1, 2), (1, 3)]

    def test_lsd_ranges(self):
        assert structurewise_pairs("lsd", 3) == []
        assert structurewise_pairs("lsd", 5) == [(4, 2), (4, 3)]

    def test_tf_floor_division(self):
        # a task-free boundary at u classes and threshold S takes the csd pairs at u // S + 1
        def tuple_tasks(u, s):
            return [z for _, z in structurewise_pairs("csd", u // s + 1)]

        assert tuple_tasks(23, 10) == [2]
        assert tuple_tasks(9, 5) == []
        assert tuple_tasks(10, 5) == [2]
        assert tuple_tasks(47, 5) == list(range(2, 10))


def _linear_setup(seed, n_tasks=3, n=4, dim=5, k=4):
    """Toy state: per-task features, a frozen linear teacher, a live student."""
    rng = np.random.default_rng(seed)
    drawn = {t: (rng.normal(size=(n, dim)), rng.normal(size=(n, dim)))
             for t in range(1, n_tasks + 1)}
    anchors = {t: a for t, (a, _) in drawn.items()}
    tuples = {t: z for t, (_, z) in drawn.items()}
    w0 = rng.normal(size=(dim, k))
    student_w = Parameter(w0.copy(), "w")

    def teacher_embed(f):
        return Tensor(f @ w0)

    def student_embed(f):
        return T.matmul(Tensor(f), student_w)

    return anchors, tuples, student_w, teacher_embed, student_embed


def stack(pairs, anchors, tuples):
    """``build_tuple_set``'s features and row pairs: each block stacked once, at first use."""
    blocks, rows, out = [], {}, []
    for a, z in pairs:
        for block in (anchors[a], tuples[z]):
            if id(block) not in rows:
                start = sum(map(len, blocks))
                rows[id(block)] = np.arange(start, start + len(block))
                blocks.append(block)
        out.append((a, z, rows[id(anchors[a])], rows[id(tuples[z])]))
    return (np.concatenate(blocks) if blocks else None), out


class TestStructurewise:
    def test_t2_csd_is_exactly_zero(self):
        anchors, tuples, w, teacher, student = _linear_setup(0)
        tset = build_tuple_set("cosine", *stack(structurewise_pairs("csd", 2), anchors, tuples),
                               teacher, tau_teacher=2.0)
        loss = structurewise_distill(tset, student, tau_student=2.0)
        assert loss.item() == 0.0

    @pytest.mark.parametrize("variant", ["csd", "fsd", "lsd"])
    @pytest.mark.parametrize("metric", POTENTIAL_METRICS)
    def test_stationary_at_snapshot(self, variant, metric):
        # equal teacher/student temperature makes the potentials coincide at
        # the snapshot, where potential cross-entropy is stationary
        anchors, tuples, w, teacher, student = _linear_setup(1, n_tasks=5)
        pairs = structurewise_pairs(variant, 5)
        tset = build_tuple_set(metric, *stack(pairs, anchors, tuples), teacher, tau_teacher=2.0)
        assert tset.pairs
        w.grad = None
        structurewise_distill(tset, student, tau_student=2.0).backward()
        assert np.max(np.abs(w.grad)) < 1e-8

    def test_stationarity_finite_difference_confirmation(self):
        anchors, tuples, w, teacher, student = _linear_setup(2, n_tasks=4)
        tset = build_tuple_set("cosine", *stack(structurewise_pairs("csd", 4), anchors, tuples),
                               teacher, tau_teacher=2.0)
        report = T.finite_difference_check(
            lambda: structurewise_distill(tset, student, tau_student=2.0),
            [w], step=1e-5, tol=1e-4)
        assert report.passed, report

    def test_nonzero_away_from_snapshot(self):
        anchors, tuples, w, teacher, student = _linear_setup(3, n_tasks=4)
        tset = build_tuple_set("cosine", *stack(structurewise_pairs("csd", 4), anchors, tuples),
                               teacher, tau_teacher=0.0001)
        w.data += 0.5
        loss = structurewise_distill(tset, student, tau_student=2.0)
        assert loss.item() > 0

    def test_sum_grows_with_pairs(self):
        anchors, tuples, w, teacher, student = _linear_setup(4, n_tasks=5)
        w.data += 0.3
        losses = []
        for t in (3, 4, 5):
            tset = build_tuple_set("cosine", *stack(structurewise_pairs("csd", t), anchors, tuples),
                                   teacher, tau_teacher=0.0001)
            losses.append(structurewise_distill(tset, student, tau_student=2.0).item())
        assert losses[0] < losses[1] < losses[2]


    @pytest.mark.parametrize("variant", DISTILL_VARIANTS)
    @pytest.mark.parametrize("metric", POTENTIAL_METRICS)
    def test_stacked_matches_per_pair_reference(self, variant, metric):
        anchors, tuples, w, teacher, student = _linear_setup(5, n_tasks=5)
        if variant == "tf":
            pairs = structurewise_pairs("csd", 23 // 5 + 1)
        else:
            pairs = structurewise_pairs(variant, 5)
            tuples = anchors  # the task-aware variants pass one map for both sides
        tset = build_tuple_set(metric, *stack(pairs, anchors, tuples), teacher, tau_teacher=0.5)
        w.data += 0.3

        def reference():  # each pair's anchors and tuples embedded on their own
            total = Tensor(0.0)
            for a_task, z_task in pairs:
                with T.no_grad():
                    p = potential_matrix(teacher(anchors[a_task]), teacher(tuples[z_task]),
                                         metric, 0.5)
                scores = score_matrix(student(anchors[a_task]), student(tuples[z_task]), metric)
                logq = T.log_softmax(scores, axis=1, temperature=2.0)
                total = total + T.sum_(Tensor(p.data) * logq) * -1.0
            return total

        w.grad = None
        ref = reference()
        ref.backward()
        ref_grad = w.grad
        w.grad = None
        loss = structurewise_distill(tset, student, tau_student=2.0)
        loss.backward()
        assert [(p.anchor_task, p.tuple_task) for p in tset.pairs] == pairs
        assert abs(loss.item() - ref.item()) <= 1e-12
        np.testing.assert_allclose(w.grad, ref_grad, rtol=1e-9, atol=1e-12)

    def test_one_student_embed_per_call(self):
        anchors, tuples, w, teacher, student = _linear_setup(6, n_tasks=5)
        calls = []

        def counting(f):
            calls.append(len(f))
            return student(f)

        tset = build_tuple_set("cosine", *stack(structurewise_pairs("csd", 5), anchors, anchors),
                               teacher, tau_teacher=2.0)
        assert len(tset.pairs) == 3
        structurewise_distill(tset, counting, tau_student=2.0)
        assert calls == [len(tset.features)]
        empty = build_tuple_set("cosine", None, [], teacher, tau_teacher=2.0)
        assert structurewise_distill(empty, counting, tau_student=2.0).item() == 0.0
        assert calls == [len(tset.features)]


class TestTotalObjective:
    def test_task1_reduces_to_ce(self):
        rng = np.random.default_rng(10)
        logits = Tensor(rng.normal(size=(4, 3)))
        labels = rng.integers(0, 3, size=4)
        loss, parts = total_objective(logits, labels, loss_cfg=LossConfig())
        assert loss.item() == ce_loss(Tensor(logits.data), labels).item()
        assert set(parts) == {"ce"}

    def test_zero_lambdas_give_plain_er(self):
        rng = np.random.default_rng(11)
        cur = Tensor(rng.normal(size=(4, 3)))
        rep = Tensor(rng.normal(size=(6, 3)))
        yc = rng.integers(0, 3, size=4)
        yr = rng.integers(0, 3, size=6)
        weights = LossConfig(lambda_dctn=0.0, lambda_dcsd=0.0)
        loss, parts = total_objective(cur, yc, rep, yr,
                                      teacher_replay_logits=rng.normal(size=(6, 3)),
                                      loss_cfg=weights)
        expected = ce_loss(Tensor(cur.data), yc).item() + ce_loss(Tensor(rep.data), yr).item()
        assert loss.item() == expected
        assert "dctn" not in parts and "dcsd" not in parts

    def test_additivity(self):
        rng = np.random.default_rng(12)
        anchors, tuples, w, teacher, student = _linear_setup(12, n_tasks=4)
        tset = build_tuple_set("cosine", *stack(structurewise_pairs("csd", 4), anchors, tuples),
                               teacher, tau_teacher=0.0001)
        cur = rng.normal(size=(4, 4))
        rep = rng.normal(size=(5, 4))
        yc = rng.integers(0, 4, size=4)
        yr = rng.integers(0, 4, size=5)
        t_logits = rng.normal(size=(5, 4))
        weights = LossConfig()
        w.data += 0.2
        loss, _ = total_objective(Tensor(cur), yc, Tensor(rep), yr, t_logits,
                                  tset, student, loss_cfg=weights)
        manual = (ce_loss(Tensor(cur), yc).item()
                  + ce_loss(Tensor(rep), yr).item()
                  + weights.lambda_dctn * kl_pointwise_distill(t_logits, Tensor(rep), weights.tau_dctn).item()
                  + weights.lambda_dcsd * structurewise_distill(tset, student, weights.tau_student).item())
        assert loss.item() == pytest.approx(manual, abs=1e-12)

    def test_composed_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        anchors, tuples, w, teacher, student = _linear_setup(13, n_tasks=4)
        tset = build_tuple_set("cosine", *stack(structurewise_pairs("csd", 4), anchors, tuples),
                               teacher, tau_teacher=0.0001)
        cur_x = rng.normal(size=(4, 5))
        rep_x = rng.normal(size=(5, 5))
        yc = rng.integers(0, 4, size=4)
        yr = rng.integers(0, 4, size=5)
        t_logits = rep_x @ (w.data + rng.normal(scale=0.1, size=w.shape))
        w.data += 0.1

        def f():
            loss, _ = total_objective(T.matmul(Tensor(cur_x), w), yc,
                                      T.matmul(Tensor(rep_x), w), yr,
                                      t_logits, tset, student, loss_cfg=LossConfig())
            return loss

        report = T.finite_difference_check(f, [w], step=1e-6, tol=1e-4)
        assert report.passed, report
