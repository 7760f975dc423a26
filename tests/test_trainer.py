"""Trainer harness: loop bookkeeping, snapshots, evaluation purity, determinism."""

import gc

import numpy as np
import pytest

import streamcl.tensor as T
import streamcl.trainer as trainer_module
from streamcl import worker
from streamcl.config import parse_config_text
from streamcl.encoder import save_pyramid_file
from streamcl.losses import POTENTIAL_METRICS, LabelOutOfRange, ce_loss, potential_matrix
from streamcl.memory import buffer_sample
from streamcl.streams import NO_DRAW, apply_draws, augment_batch
from streamcl.tensor import Tensor
from streamcl.trainer import Trainer, run_experiment, state_fingerprint

TINY = """
[stream]
kind = {kind}
tasks = 3
samples_per_task = 40
test_samples = 30
[encoder]
stage_channels = 4,4,8,8
[model]
norm_kind = {norm}
feature_channels = 4
[replay]
capacity = 20
replay_batch = 8
{replay}
[loss]
n_per_task = 5
{loss}
[train]
batch = 10
{train}
"""


def no_draws(n):
    """The draws of ``n`` rows that augmentation left as they are."""
    return np.tile(NO_DRAW, (n, 1))


def tiny_cfg(kind="gaussian_blobs", norm="spn", replay="", loss="", train=""):
    return parse_config_text(TINY.format(kind=kind, norm=norm, replay=replay,
                                          loss=loss, train=train))


def inline_run(cfg, seed):
    """A whole run through the trainer's own loop, encoding in this process;
    returns the final state."""
    trainer = Trainer(cfg, seed)
    return trainer.run(trainer.build_state())


class TestTrainTask:
    def test_task1_runs_without_snapshot(self):
        trainer = Trainer(tiny_cfg(), seed=0)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        assert state.teacher is None and state.tuple_set is None
        assert len(state.losses_seen) == 4 * 2  # 4 batches x 2 inner updates
        assert len(state.buffer) == 20  # ring capacity; FIFO keeps the newest
        kept = sorted(it[3] for it in state.buffer.items())
        assert kept == list(range(20, 40))

    def test_zero_updates_leave_params_unchanged(self):
        trainer = Trainer(tiny_cfg(train="inner_updates = 0"), seed=0)
        state = trainer.build_state()
        before = state.classifier.state_bytes()
        trainer.train_task(state, 0)
        assert state.classifier.state_bytes() == before
        assert len(state.buffer) == 20  # buffer still fills to capacity

    def test_replay_disabled_keeps_buffer_empty(self):
        trainer = Trainer(tiny_cfg(replay="enabled = false",
                                   loss="distill_variant = none\nlambda_dctn = 0"), seed=0)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        assert len(state.buffer) == 0

    def test_loss_descends_on_repeated_batch(self):
        # 20 repeated updates at lr 0.01, allowing two non-monotone steps
        failures = []
        for seed in range(5):
            cfg = tiny_cfg(loss="distill_variant = none\nlambda_dctn = 0")
            trainer = Trainer(cfg, seed=seed)
            state = trainer.build_state()
            state.optimizer.lr = 0.01
            batch = next(state.stream.train_batches(0, 10))
            with T.no_grad():
                h = state.encoder.features(Tensor(batch.xs), "top_down")
            vals = []
            for _ in range(20):
                logits = state.classifier.forward(Tensor(h.data))
                loss = ce_loss(logits, batch.ys)
                vals.append(loss.item())
                state.optimizer.zero_grad()
                loss.backward()
                state.optimizer.step()
            rises = sum(1 for a, b in zip(vals, vals[1:]) if b > a + 1e-12)
            if rises > 2:
                failures.append((seed, rises, vals))
        assert not failures, failures


class TestOneUpdateGraph:
    @pytest.mark.parametrize("loss, replay", [
        ("distill_variant = csd", ""),
        ("distill_variant = tf\nnew_task_classes = 2\nsamples_per_class = 2",
         "policy = reservoir"),
    ], ids=["csd", "tf"])
    def test_no_graph_is_alive_at_an_encode(self, monkeypatch, loss, replay):
        # each update's graph is freed on its return, before the next one
        # encodes its replay batch, the next stream batch or a snapshot
        alive = []
        for source in (trainer_module.FeatureEncoder, worker.FeatureReader):
            def scanned(features, *args, _call=source.__call__):
                alive.append(sum(1 for o in gc.get_objects()
                                 if isinstance(o, Tensor) and o._backward is not None))
                return _call(features, *args)

            monkeypatch.setattr(source, "__call__", scanned)
        gc.collect()  # graphs that earlier tests left in cycles
        run_experiment(tiny_cfg(loss=loss, replay=replay), seed=0)
        assert len(alive) > 20
        assert max(alive) == 0


class TestEndOfTask:
    def test_after_task1_snapshot_exists_csd_pairs_empty(self):
        trainer = Trainer(tiny_cfg(), seed=1)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        trainer.end_of_task(state, 1)
        assert state.teacher is not None
        assert state.tuple_set.pairs == []  # needs two stored tasks

    def test_after_task3_tuples_cover_all_tasks(self):
        trainer = Trainer(tiny_cfg(), seed=1)
        state = trainer.build_state()
        for t in range(3):
            trainer.train_task(state, t)
            trainer.end_of_task(state, t + 1)
        tset = state.tuple_set
        rows = {}
        for p in tset.pairs:
            rows[p.anchor_task] = len(tset.features[p.anchor_rows])
            rows[p.tuple_task] = len(tset.features[p.tuple_rows])
        assert set(rows) == {1, 2, 3}
        assert all(n == 5 for n in rows.values())
        pairs = [(p.anchor_task, p.tuple_task) for p in tset.pairs]
        assert pairs == [(1, 2), (2, 3)]

    def test_snapshot_diverges_from_live_after_update(self):
        trainer = Trainer(tiny_cfg(), seed=2)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        trainer.end_of_task(state, 1)
        snap_bytes = state.teacher.state_bytes()
        trainer.train_task(state, 1)
        assert state.classifier.state_bytes() != snap_bytes

    def test_snapshot_immutable_under_training(self):
        trainer = Trainer(tiny_cfg(), seed=2)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        trainer.end_of_task(state, 1)
        before = {k: v.copy() for k, v in state.teacher.state().items()}
        trainer.train_task(state, 1)
        for k, v in state.teacher.state().items():
            np.testing.assert_array_equal(v, before[k])

    @pytest.mark.parametrize("metric", POTENTIAL_METRICS)
    def test_teacher_potentials_equal_live_tensor_path(self, metric):
        # at the boundary the live classifier holds the teacher's weights, so
        # the cached potentials must be exactly what the student path computes
        trainer = Trainer(tiny_cfg(loss=f"potential_metric = {metric}"), seed=1)
        state = trainer.build_state()
        checked = 0
        for t in range(3):
            trainer.train_task(state, t)
            trainer.end_of_task(state, t + 1)
            clf = state.classifier
            feats = state.tuple_set.features
            for pair in state.tuple_set.pairs:
                with T.no_grad():
                    live = potential_matrix(clf.embed(feats[pair.anchor_rows]),
                                            clf.embed(feats[pair.tuple_rows]),
                                            metric, trainer.cfg.loss.tau_teacher)
                assert np.array_equal(pair.teacher_potential, live.data)
                checked += 1
        assert checked == 3  # (1,2) after task 2; (1,2) and (2,3) after task 3


    def test_each_task_embedded_once_per_boundary(self, monkeypatch):
        real = trainer_module.build_tuple_set
        calls = []

        def counting(metric, features, pairs, teacher_embed, *args, **kw):
            count = [0]

            def embed(h):
                count[0] += 1
                return teacher_embed(h)

            tset = real(metric, features, pairs, embed, *args, **kw)
            calls.append(count[0])
            # each task is stacked once: one row array per task, 5 rows each
            task_rows = {}
            for a, z, a_rows, z_rows in pairs:
                for t, r in ((a, a_rows), (z, z_rows)):
                    assert np.array_equal(task_rows.setdefault(t, r), r)
            assert (features is None) == (not pairs)
            assert not pairs or len(features) == 5 * len(task_rows)
            # every pair's anchors and tuples stacked apart as a reference
            blocks = [features[r] for _, _, a_rows, z_rows in pairs for r in (a_rows, z_rows)]
            starts = np.cumsum([0] + [len(b) for b in blocks])
            apart = [(a, z, np.arange(starts[2 * i], starts[2 * i + 1]),
                      np.arange(starts[2 * i + 1], starts[2 * i + 2]))
                     for i, (a, z, _, _) in enumerate(pairs)]
            ref = real(metric, np.concatenate(blocks) if blocks else None, apart,
                       teacher_embed, *args, **kw)
            assert len(tset.pairs) == len(ref.pairs)
            for mine, theirs in zip(tset.pairs, ref.pairs):
                assert np.array_equal(mine.teacher_potential, theirs.teacher_potential)
            return tset

        monkeypatch.setattr(trainer_module, "build_tuple_set", counting)
        cfg = tiny_cfg(loss="distill_variant = csd")
        cfg.stream.tasks = 4
        trainer = Trainer(cfg, seed=1)
        state = trainer.build_state()
        for t in range(4):
            trainer.train_task(state, t)
            trainer.end_of_task(state, t + 1)
        assert calls == [0, 1, 1, 1]  # one embed of the stacked features per boundary with pairs

    def test_teacher_carries_no_gradients(self):
        trainer = Trainer(tiny_cfg(), seed=1)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        grads = [p.grad for p in state.classifier.params()]
        assert all(g is not None for g in grads)
        trainer.end_of_task(state, 1)
        assert all(p.grad is None for p in state.teacher.params())
        assert all(p.grad is g for p, g in zip(state.classifier.params(), grads))

    @pytest.mark.parametrize("loss, replay", [
        ("distill_variant = csd", ""),
        ("distill_variant = lsd", ""),
        ("distill_variant = tf\nnew_task_classes = 2\nsamples_per_class = 2",
         "policy = reservoir"),
    ], ids=["csd", "lsd", "tf"])
    def test_boundaries_encode_only_the_stacked_rows(self, monkeypatch, loss, replay):
        # a boundary encodes exactly the rows its tuple set stacks, in one call:
        # none for selected tasks that no live pair names, and each sample index once
        encoded, calls = [0], [0]
        real_features = trainer_module.FeatureEncoder.__call__
        real_boundary, real_snapshot = Trainer._boundary, Trainer._snapshot

        def counting(features, xs, *args):
            encoded[0] += len(xs)
            calls[0] += 1
            return real_features(features, xs, *args)

        seen, built = [], []

        def boundary(self, state, pairs, anchors, tuples):
            encoded[0], calls[0] = 0, 0
            step = real_boundary(self, state, pairs, anchors, tuples)
            live = [(a, z) for a, z in pairs
                    if len(anchors.get(a, ())) and len(tuples.get(z, ()))]
            distinct = len({int(i) for a, z in live
                            for i in np.concatenate([anchors[a].indices, tuples[z].indices])})
            # each pair's rows hold its own batches' samples, in batch order
            assert [(a, z) for a, z, _, _ in step.pairs] == live
            for a, z, a_rows, z_rows in step.pairs:
                for b, rows in ((anchors[a], a_rows), (tuples[z], z_rows)):
                    np.testing.assert_allclose(step.features[rows],
                                               real_features(state.features, b.xs, b.indices,
                                                             no_draws(len(b))),
                                               rtol=0, atol=1e-12)
            stacked = 0 if step.features is None else len(step.features)
            seen.append((encoded[0], stacked, distinct, calls[0]))
            return step

        def snapshot(self, state, step):
            out = real_snapshot(self, state, step)
            tset = state.tuple_set
            built.append(tset.features is step.features and
                         [(p.anchor_task, p.tuple_task) for p in tset.pairs]
                         == [(a, z) for a, z, _, _ in step.pairs])
            return out

        monkeypatch.setattr(trainer_module.FeatureEncoder, "__call__", counting)
        monkeypatch.setattr(Trainer, "_boundary", boundary)
        monkeypatch.setattr(Trainer, "_snapshot", snapshot)
        cfg = tiny_cfg(replay=replay, loss=loss)
        cfg.stream.tasks = 4
        inline_run(cfg, seed=1)
        assert len(seen) >= 3 and any(stacked for _, stacked, _, _ in seen)
        assert all(enc == stacked == n for enc, stacked, n, _ in seen), seen
        assert all(c == (1 if stacked else 0) for _, stacked, _, c in seen), seen
        assert len(built) == len(seen) and all(built)


class TestEvaluate:
    def test_eval_never_mutates_state(self):
        trainer = Trainer(tiny_cfg(), seed=3)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        before = state_fingerprint(state)
        trainer.evaluate(state, 0)
        assert state_fingerprint(state) == before

    def test_eval_twice_identical(self):
        trainer = Trainer(tiny_cfg(), seed=3)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        row1 = trainer.evaluate(state, 0).copy()
        row2 = trainer.evaluate(state, 0).copy()
        np.testing.assert_array_equal(row1, row2)

    def test_untrained_classifier_near_chance(self):
        # 6 balanced classes: diagonal accuracy about 1/6 over 5 seeds
        accs = []
        for seed in range(5):
            cfg = tiny_cfg(train="inner_updates = 0")
            trainer = Trainer(cfg, seed=seed)
            state = trainer.build_state()
            for t in range(3):
                trainer.train_task(state, t)
                trainer.evaluate(state, t)
            accs.extend(np.diag(state.matrix.a))
        assert abs(np.mean(accs) - 1 / 6) <= 0.1

    def test_train_vs_eval_mode_differ_for_bn(self):
        trainer = Trainer(tiny_cfg(norm="bn"), seed=4)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        test = state.stream.tasks[0].test
        with T.no_grad():
            h = state.encoder.features(Tensor(test.xs[:20] + 1.5), "top_down")
        state.classifier.eval()
        with T.no_grad():
            eval_logits = state.classifier.forward(Tensor(h.data)).data
        state.classifier.train()
        with T.no_grad():
            train_logits = state.classifier.forward(Tensor(h.data)).data
        assert not np.allclose(eval_logits, train_logits)


class TestDeterminismAndEquality:
    def test_same_config_seed_bitwise_metrics(self):
        cfg = tiny_cfg()
        a = run_experiment(cfg, seed=5)
        b = run_experiment(tiny_cfg(), seed=5)
        assert a.matrix.csv_lines() == b.matrix.csv_lines()
        assert a.metrics == b.metrics

    def test_encoder_kernels_frozen_through_run(self):
        res = run_experiment(tiny_cfg(), seed=6)
        assert res.matrix.complete

    def test_plain_er_reference_equality(self):
        """With distillation off and BN norms the trainer must match a
        stripped-down ER loop on the first 10 loss values."""
        cfg = tiny_cfg(norm="bn", loss="distill_variant = none\nlambda_dctn = 0\nlambda_dcsd = 0")
        trainer = Trainer(cfg, seed=7)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        got = state.losses_seen[:10]

        ref_state = Trainer(cfg, seed=7).build_state()
        expected = []
        for batch in ref_state.stream.train_batches(0, 10):
            xs = apply_draws(batch.xs, augment_batch(batch.xs, ("crop_pad",), "replay_only",
                                                     ref_state.rngs["augment"], is_replay=False,
                                                     target_dims=32))
            with T.no_grad():
                h = ref_state.encoder.features(Tensor(xs), "top_down").data
            for _ in range(2):
                rep = None
                if len(ref_state.buffer) > 0:
                    rb = buffer_sample(ref_state.buffer, 8, ref_state.rngs["buffer"])
                    rxs = apply_draws(rb.xs, augment_batch(rb.xs, ("crop_pad",), "replay_only",
                                                           ref_state.rngs["augment"],
                                                           is_replay=True, target_dims=32))
                    with T.no_grad():
                        rep = (ref_state.encoder.features(Tensor(rxs), "top_down").data, rb.ys)
                loss = ce_loss(ref_state.classifier.forward(Tensor(h)), batch.ys)
                if rep is not None:
                    loss = loss + ce_loss(ref_state.classifier.forward(Tensor(rep[0])), rep[1])
                expected.append(loss.item())
                ref_state.optimizer.zero_grad()
                loss.backward()
                ref_state.optimizer.step()
            for i in range(len(batch.ys)):
                ref_state.buffer.insert(batch.xs[i], int(batch.ys[i]), 1,
                                        int(batch.indices[i]))
            if len(expected) >= 10:
                break
        assert got == expected[:10]


class TestBudget:
    def test_full_blob_run_under_60s(self):
        import time
        cfg = parse_config_text("""
[stream]
kind = gaussian_blobs
tasks = 5
samples_per_task = 500
test_samples = 100
[replay]
replay_batch = 32
[train]
batch = 10
""")
        start = time.time()
        res = run_experiment(cfg, seed=0)
        elapsed = time.time() - start
        assert res.matrix.complete
        assert elapsed < 60, f"{elapsed:.1f}s"


class TestKnobs:
    """The config values that no other trainer test turns on."""

    @pytest.mark.parametrize("draw, per_batch", [("single", 1), ("per_update", 2)])
    def test_replay_draw(self, monkeypatch, draw, per_batch):
        calls = []

        def counting(buffer, *args, **kwargs):
            calls.append(len(buffer))
            return buffer_sample(buffer, *args, **kwargs)

        monkeypatch.setattr(trainer_module, "buffer_sample", counting)
        trainer = Trainer(tiny_cfg(train=f"replay_draw = {draw}"), seed=0)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        # 4 batches x 2 inner updates; the buffer holds samples from batch 2 on
        assert len(calls) == 3 * per_batch and min(calls) > 0

    def test_aggregate_channels(self):
        default = Trainer(tiny_cfg(), seed=0).build_state()
        cfg = tiny_cfg()
        cfg.encoder.aggregate_channels = 6
        state = Trainer(cfg, seed=0).build_state()
        x = state.stream.tasks[0].train.xs[:3]
        feats = state.features(x, np.arange(3), no_draws(3))
        assert feats.shape[1] == 6 and state.classifier.conv1.shape[1] == 6
        assert default.features(x, np.arange(3), no_draws(3)).shape[1] == 4
        # the extra projection is drawn last: every other kernel is the default draw
        enc, ref = state.encoder, default.encoder
        kernels = enc.stages + enc.mixer.all_kernels()[:-1]
        ref_kernels = ref.stages + ref.mixer.all_kernels()
        assert [k.data.tobytes() for k in kernels] == [k.data.tobytes() for k in ref_kernels]
        assert enc.mixer.output.shape == (6, 4, 3, 3) and ref.mixer.output is None

    def test_penultimate_embedding(self):
        trainer = Trainer(tiny_cfg(loss="distill_variant = csd\nembedding = penultimate"), seed=1)
        state = trainer.build_state()
        for t in range(2):
            trainer.train_task(state, t)
            trainer.end_of_task(state, t + 1)
        clf = state.classifier
        (pair,) = state.tuple_set.pairs
        a_feats = state.tuple_set.features[pair.anchor_rows]
        z_feats = state.tuple_set.features[pair.tuple_rows]
        with T.no_grad():
            rows = clf.embed(a_feats)
            assert rows.shape == (len(a_feats), clf.flat_dim)
            with clf.eval_mode():
                anchors = clf.penultimate(Tensor(a_feats))
                tuples = clf.penultimate(Tensor(z_feats))
                logit_pot = potential_matrix(clf.forward(Tensor(a_feats)),
                                             clf.forward(Tensor(z_feats)),
                                             "cosine", trainer.cfg.loss.tau_teacher)
            pot = potential_matrix(anchors, tuples, "cosine", trainer.cfg.loss.tau_teacher)
        assert np.array_equal(rows.data, anchors.data)
        assert np.array_equal(pair.teacher_potential, pot.data)
        assert not np.array_equal(pair.teacher_potential, logit_pot.data)


class TestMaskedCE:
    HEADS = np.array([[0, 3], [1, 4], [2, 5]])  # row t - 1: task t's class columns

    def _batch(self, seed):
        rng = np.random.default_rng(seed)
        task_ids = np.array([1, 3, 1, 2, 3, 3, 1])
        ys = np.array([self.HEADS[t - 1][rng.integers(2)] for t in task_ids])
        return rng.normal(size=(7, 4)), rng.normal(size=(4, 6)), ys, task_ids

    def test_size_weighted_ce_over_each_tasks_columns(self):
        x, w, ys, task_ids = self._batch(0)
        logits = x @ w
        got = trainer_module._head_ce(Tensor(logits), ys, task_ids, self.HEADS).item()
        expected = 0.0
        for t, cols in enumerate(self.HEADS, start=1):
            rows = task_ids == t
            local = ce_loss(Tensor(logits[rows][:, cols]), np.searchsorted(cols, ys[rows]))
            expected += local.item() * rows.sum() / len(ys)
        assert got == pytest.approx(expected, abs=1e-12)
        # the same value from a plain-numpy log-softmax over each row's own columns
        per_row = [np.log(np.exp(logits[i, self.HEADS[t - 1]]).sum()) - logits[i, y]
                   for i, (t, y) in enumerate(zip(task_ids, ys))]
        assert got == pytest.approx(np.mean(per_row), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        x, w0, ys, task_ids = self._batch(1)
        w = T.Parameter(w0, "w")

        def f():
            return trainer_module._head_ce(T.matmul(Tensor(x), w), ys, task_ids, self.HEADS)

        report = T.finite_difference_check(f, [w], step=1e-6, tol=1e-4)
        assert report.passed, report

    def test_single_head_is_plain_ce_bitwise(self):
        x, w, ys, task_ids = self._batch(2)
        heads = np.tile(np.arange(6), (3, 1))
        grads = []
        for ce in (lambda lo: ce_loss(lo, ys),
                   lambda lo: trainer_module._head_ce(lo, ys, task_ids, heads)):
            logits = T.Parameter(x @ w, "logits")
            loss = ce(logits)
            loss.backward()
            grads.append((loss.data.tobytes(), logits.grad.tobytes()))
        assert grads[0] == grads[1]

    def test_label_outside_its_head_rejected(self):
        # label 1 belongs to task 2; scored in task 1's head [0, 3] it has no column
        logits = Tensor(np.zeros((2, 6)))
        with pytest.raises(LabelOutOfRange):
            trainer_module._head_ce(logits, np.array([0, 1]), np.array([1, 1]), self.HEADS)
        with pytest.raises(LabelOutOfRange):  # single head: past the last class
            trainer_module._head_ce(logits, np.array([0, 6]), np.array([1, 2]),
                                    np.tile(np.arange(6), (3, 1)))


class TestHeadTable:
    @pytest.mark.parametrize("head_mode, expected", [
        ("single", [list(range(6))] * 3),
        ("multi", [[0, 1], [2, 3], [4, 5]]),
    ])
    def test_rows_hold_each_tasks_columns(self, head_mode, expected):
        cfg = tiny_cfg(loss="distill_variant = none\nlambda_dctn = 0")
        cfg.model.head_mode = head_mode
        state = Trainer(cfg, seed=0).build_state()
        assert [sorted(t.class_ids) for t in state.stream.tasks] == [[0, 1], [2, 3], [4, 5]]
        assert state.heads.tolist() == expected


class TestModes:
    def test_multi_head_runs_and_scores(self):
        cfg = tiny_cfg(loss="distill_variant = none\nlambda_dctn = 0")
        cfg.model.head_mode = "multi"
        res = run_experiment(cfg, seed=8)
        assert res.matrix.complete
        assert res.metrics["la"] >= 0.5  # within-task chance is 0.5 for 2-way tasks

    def test_task_free_mode_snapshots_at_pseudo_boundaries(self):
        cfg = tiny_cfg(replay="policy = reservoir",
                       loss="distill_variant = tf\nnew_task_classes = 2\nsamples_per_class = 2")
        trainer = Trainer(cfg, seed=9)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        assert state.pseudo_level == 1  # two classes seen -> one pseudo-task
        trainer.train_task(state, 1)
        assert state.pseudo_level == 2
        assert state.teacher is not None
        pairs = [(p.anchor_task, p.tuple_task) for p in state.tuple_set.pairs]
        assert pairs == [(1, 2)]
        trainer.train_task(state, 2)
        assert state.pseudo_level == 3

    def test_standard_mode_head_only(self):
        cfg = tiny_cfg(loss="distill_variant = none\nlambda_dctn = 0")
        cfg.encoder.aggregate_mode = "standard"
        res = run_experiment(cfg, seed=10)
        assert Trainer(cfg, 10).build_state().classifier.arch == "head_only"
        assert res.matrix.complete

    def test_pyramid_file_mode_matches_live_encoder(self, tmp_path):
        cfg = tiny_cfg(loss="distill_variant = none\nlambda_dctn = 0")
        cfg.stream.augment = "none"
        live = run_experiment(cfg, seed=11)

        state = Trainer(cfg, seed=11).build_state()
        stream = state.stream
        all_xs = np.concatenate([np.concatenate([t.train.xs, t.test.xs]) for t in stream.tasks])
        all_idx = np.concatenate([np.concatenate([t.train.indices, t.test.indices])
                                  for t in stream.tasks])
        order = np.argsort(all_idx)
        with T.no_grad():
            pyr = state.encoder.extract(Tensor(all_xs[order]))
        path = tmp_path / "stream.pyr"
        save_pyramid_file(path, [l.data for l in pyr])

        cfg2 = tiny_cfg(loss="distill_variant = none\nlambda_dctn = 0")
        cfg2.stream.augment = "none"
        cfg2.encoder.pyramid_file = str(path)
        stored = run_experiment(cfg2, seed=11)
        assert stored.matrix.csv_lines() == live.matrix.csv_lines()
