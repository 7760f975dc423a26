"""Streams: generation, augmentation, metric formulas against a loop oracle."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamcl.tensor as T
from streamcl.encoder import MultiScaleEncoder
from streamcl.streams import (
    AUGMENT_APPLY,
    BLOB_NOISE,
    CROP_PAD,
    GRATING_JITTER_DEG,
    GRATING_NOISE,
    NO_DRAW,
    AccuracyMatrix,
    IncompleteMatrix,
    augment_batch,
    compute_metrics,
    generate_stream,
    resize_images,
)
from streamcl.tensor import InvalidConfig, Parameter, Tensor


def metrics_loop(a):
    """Independent scalar-loop implementation of ACC/FM/LA."""
    t = len(a)
    acc = sum(a[t - 1][j] for j in range(t)) / t
    la = sum(a[j][j] for j in range(t)) / t
    if t == 1:
        return acc, 0.0, la
    fm = 0.0
    for j in range(t - 1):
        best = max(a[l][j] for l in range(j, t - 1))
        fm += best - a[t - 1][j]
    return acc, fm / (t - 1), la


def image_by_image_stream(kind, n_tasks, classes_per_task, samples_per_task, test_samples,
                          dims, channels, seed):
    """Reference renderer: one image at a time, each from its own draws, as
    ``generate_stream`` used to; yields each set's (xs, ys, indices)."""
    rng = np.random.default_rng(seed)
    axis = np.arange(dims) - (dims - 1) / 2.0
    u, v = np.meshgrid(axis, axis, indexing="ij")
    total_classes = n_tasks * classes_per_task
    if kind == "gaussian_blobs":
        centers = rng.uniform(-dims / 4, dims / 4, size=(total_classes, 2))
        sigmas = rng.uniform(dims / 8, dims / 5, size=total_classes)
        weights = rng.uniform(0.5, 1.5, size=(total_classes, channels))

        def render(c):
            bump = np.exp(-(((u - centers[c][0]) ** 2) + ((v - centers[c][1]) ** 2))
                          / (2 * sigmas[c] ** 2))
            img = weights[c][:, None, None] * bump[None]
            return img + BLOB_NOISE * rng.normal(size=(channels, dims, dims))
    else:
        freqs = 2.0 + 2.0 * np.arange(classes_per_task)

        def render(c):
            task, slot = divmod(c, classes_per_task)
            phase = rng.uniform(0, 2 * np.pi)
            a = task * np.pi / n_tasks + rng.normal(scale=np.deg2rad(GRATING_JITTER_DEG))
            wave = np.sin(2 * np.pi * freqs[slot] * (u * np.cos(a) + v * np.sin(a)) / dims
                          + phase)
            img = np.repeat(wave[None], channels, axis=0)
            return img + GRATING_NOISE * rng.normal(size=(channels, dims, dims))

    next_index = 0
    for t in range(n_tasks):
        for count in (samples_per_task, test_samples):
            ys = rng.integers(0, classes_per_task, size=count) + t * classes_per_task
            yield np.stack([render(y) for y in ys]), ys, np.arange(next_index, next_index + count)
            next_index += count


def small_stream(kind="gaussian_blobs", seed=0, samples=40, test=20):
    return generate_stream(kind, n_tasks=3, classes_per_task=2, samples_per_task=samples,
                           test_samples=test, dims=32, channels=1, seed=seed)


class TestGeneration:
    @pytest.mark.parametrize("kind", ["gaussian_blobs", "rotated_patterns"])
    def test_disjoint_classes(self, kind):
        stream = small_stream(kind)
        seen = set()
        for task in stream.tasks:
            assert not (set(task.class_ids) & seen)
            seen |= set(task.class_ids)
            assert set(np.unique(task.train.ys)) <= set(task.class_ids)
        assert stream.n_classes == 6

    def test_split_arithmetic(self):
        stream = generate_stream("gaussian_blobs", 5, 2, 10, 5, 32, 1, seed=1)
        assert stream.n_classes == 10

    @pytest.mark.parametrize("kind", ["gaussian_blobs", "rotated_patterns"])
    def test_same_seed_identical_bytes(self, kind):
        a, b = small_stream(kind, seed=3), small_stream(kind, seed=3)
        for ta, tb in zip(a.tasks, b.tasks):
            assert ta.train.xs.tobytes() == tb.train.xs.tobytes()
            np.testing.assert_array_equal(ta.train.ys, tb.train.ys)

    @pytest.mark.parametrize("kind", ["gaussian_blobs", "rotated_patterns"])
    @pytest.mark.parametrize("n_tasks, classes, samples, test, dims, channels, seed", [
        (2, 2, 5, 7, 16, 1, 0),
        (3, 3, 40, 9, 32, 3, 1),
        (10, 2, 12, 5, 48, 2, 7),
        (2, 2, 500, 100, 32, 1, 0),
    ])
    def test_bytes_match_image_by_image_render(self, kind, n_tasks, classes, samples, test,
                                               dims, channels, seed):
        args = (kind, n_tasks, classes, samples, test, dims, channels, seed)
        stream = generate_stream(*args)
        sets = [s for task in stream.tasks for s in (task.train, task.test)]
        reference = list(image_by_image_stream(*args))
        assert len(sets) == len(reference)
        for got, (xs, ys, indices) in zip(sets, reference):
            assert got.xs.tobytes() == xs.tobytes()
            assert got.xs.shape == xs.shape
            assert got.ys.tobytes() == ys.tobytes()
            assert got.indices.tobytes() == indices.tobytes()

    def test_different_seed_differs(self):
        a, b = small_stream(seed=3), small_stream(seed=4)
        assert a.tasks[0].train.xs.tobytes() != b.tasks[0].train.xs.tobytes()

    def test_global_indices_unique(self):
        stream = small_stream()
        all_idx = np.concatenate([np.concatenate([t.train.indices, t.test.indices])
                                  for t in stream.tasks])
        assert len(np.unique(all_idx)) == stream.total_samples

    def test_train_batches_cover_once(self):
        stream = small_stream(samples=25)
        batches = list(stream.train_batches(1, batch_size=10))
        assert [len(b) for b in batches] == [10, 10, 5]
        got = np.concatenate([b.indices for b in batches])
        np.testing.assert_array_equal(got, stream.tasks[1].train.indices)
        assert all((b.task_ids == 2).all() for b in batches)  # 1-based, as in the buffers

    def test_bad_dims_rejected(self):
        with pytest.raises(InvalidConfig):
            generate_stream("gaussian_blobs", 2, 2, 5, 5, 30, 1, seed=0)

    def test_linear_probe_learns_one_task_in_one_pass(self):
        # calibration: desk-scale tasks must be learnable from encoder features
        stream = generate_stream("gaussian_blobs", 1, 2, 200, 50, 32, 1, seed=5)
        enc = MultiScaleEncoder.from_seed(9, 1, (8, 16, 32, 64))
        task = stream.tasks[0]

        def flat(xs):
            with T.no_grad():
                h = enc.features(Tensor(xs), "top_down")
            return h.data.reshape(len(xs), -1)

        rng = np.random.default_rng(0)
        feats = flat(task.train.xs)
        w = Parameter(rng.normal(scale=0.01, size=(feats.shape[1], 2)), "probe.w")
        b = Parameter(np.zeros((1, 2)), "probe.b")
        from streamcl.losses import ce_loss
        for start in range(0, 200, 10):
            xs = feats[start:start + 10]
            ys = task.train.ys[start:start + 10]
            loss = ce_loss(T.matmul(Tensor(xs), w) + b, ys)
            w.grad = b.grad = None
            loss.backward()
            w.data -= 0.1 * w.grad
            b.data -= 0.1 * b.grad
        logits = feats @ w.data + b.data
        acc = float(np.mean(logits.argmax(axis=1) == task.train.ys))
        assert acc > 0.9, acc


class TestTinyImages:
    def test_roundtrip_directory(self, tmp_path):
        rng = np.random.default_rng(7)
        images = rng.normal(size=(80, 1, 32, 32))
        labels = np.repeat(np.arange(4), 20)
        np.save(tmp_path / "images.npy", images)
        (tmp_path / "labels.txt").write_text("\n".join(str(l) for l in labels))
        stream = generate_stream("tiny_images", 2, 2, 15, 5, 32, 1, seed=0,
                                 data_dir=str(tmp_path))
        assert stream.n_tasks == 2
        assert set(stream.tasks[0].class_ids) == {0, 1}
        assert len(stream.tasks[0].train) == 15
        assert (stream.tasks[1].test.task_ids == 2).all()

    def test_missing_directory(self):
        with pytest.raises(InvalidConfig):
            generate_stream("tiny_images", 2, 2, 5, 5, 32, 1, seed=0, data_dir="/nonexistent")


class TestAugment:
    def setup_method(self):
        self.rng = np.random.default_rng(11)
        self.xs = self.rng.normal(size=(6, 1, 32, 32))

    def test_none_is_identity(self):
        out, draws = augment_batch(self.xs, ("crop_pad", "hflip"), "none", self.rng,
                                   is_replay=True)
        np.testing.assert_array_equal(out, self.xs)
        assert draws.tolist() == [list(NO_DRAW)] * len(self.xs)

    def test_hflip_involution(self):
        flipped = self.xs[:, :, ::-1, :]
        np.testing.assert_array_equal(flipped[:, :, ::-1, :], self.xs)

    def test_replay_only_leaves_stream_untouched(self):
        stream_out, _ = augment_batch(self.xs, ("crop_pad",), "replay_only", self.rng,
                                      is_replay=False)
        assert hashlib.sha256(stream_out.tobytes()).digest() == hashlib.sha256(self.xs.tobytes()).digest()
        replay_out, _ = augment_batch(self.xs, ("crop_pad",), "replay_only",
                                      np.random.default_rng(1), is_replay=True)
        assert replay_out.tobytes() != self.xs.tobytes()

    def test_crop_pad_preserves_shape(self):
        out, _ = augment_batch(self.xs, ("crop_pad",), "all", self.rng, is_replay=False)
        assert out.shape == self.xs.shape

    @settings(max_examples=60, deadline=None)
    @given(ops=st.sampled_from([("crop_pad",), ("hflip",), ("crop_pad", "hflip")]),
           apply=st.sampled_from(AUGMENT_APPLY), is_replay=st.booleans(),
           rows=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_each_row_is_its_draw_of_the_input(self, ops, apply, is_replay, rows, seed):
        # the feature memo's key rests on this: a row is its input row, zero-padded by
        # CROP_PAD, cropped at its (ow, oh) and flipped when its flip is set
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=(rows, 2, 16, 16))
        out, draws = augment_batch(xs, ops, apply, rng, is_replay)
        assert draws.shape == (rows, 3)
        padded = np.pad(xs, ((0, 0), (0, 0), (CROP_PAD, CROP_PAD), (CROP_PAD, CROP_PAD)))
        for x, got, (ow, oh, flip) in zip(padded, out, draws.tolist()):
            want = x[:, ow:ow + 16, oh:oh + 16]
            if flip:
                want = want[:, ::-1, :]
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_resize_identity_when_dims_match(self):
        out = resize_images(self.xs, 32)
        assert out is self.xs

    def test_resize_downscale_constant(self):
        const = np.full((2, 1, 32, 32), 3.25)
        out = resize_images(const, 16)
        np.testing.assert_allclose(out, np.full((2, 1, 16, 16), 3.25), atol=1e-12)


class TestMetrics:
    def test_worked_t2_example(self):
        m = AccuracyMatrix(2)
        m.set_entry(0, 0, 0.9)
        m.set_entry(1, 0, 0.8)
        m.set_entry(1, 1, 0.7)
        acc, fm, la = compute_metrics(m)
        assert acc == pytest.approx(0.75, abs=1e-12)
        assert fm == pytest.approx(0.1, abs=1e-12)
        assert la == pytest.approx(0.8, abs=1e-12)

    def test_perfect_matrix(self):
        m = AccuracyMatrix(4)
        for i in range(4):
            for j in range(i + 1):
                m.set_entry(i, j, 1.0)
        assert compute_metrics(m) == (1.0, 0.0, 1.0)

    def test_negative_fm_under_backward_transfer(self):
        m = AccuracyMatrix(2)
        m.set_entry(0, 0, 0.5)
        m.set_entry(1, 0, 0.9)  # final model improved on task 0
        m.set_entry(1, 1, 0.6)
        _, fm, _ = compute_metrics(m)
        assert fm == pytest.approx(-0.4, abs=1e-12)

    def test_incomplete_matrix(self):
        m = AccuracyMatrix(3)
        m.set_entry(0, 0, 0.5)
        with pytest.raises(IncompleteMatrix):
            compute_metrics(m)

    def test_matches_loop_oracle_50_random(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            t = int(rng.integers(2, 21))
            a = np.full((t, t), np.nan)
            for i in range(t):
                a[i, :i + 1] = rng.uniform(0, 1, size=i + 1)
            acc, fm, la = compute_metrics(a)
            o_acc, o_fm, o_la = metrics_loop([list(row) for row in a])
            assert acc == pytest.approx(o_acc, abs=1e-12)
            assert fm == pytest.approx(o_fm, abs=1e-12)
            assert la == pytest.approx(o_la, abs=1e-12)

    @given(st.data())
    def test_matches_loop_oracle_property(self, data):
        t = data.draw(st.integers(1, 12))
        unit = st.floats(0.0, 1.0)
        a = np.full((t, t), np.nan)
        for i in range(t):
            a[i, :i + 1] = data.draw(st.lists(unit, min_size=i + 1, max_size=i + 1))
        got = compute_metrics(a)
        want = metrics_loop([list(row) for row in a])
        assert got == pytest.approx(want, abs=1e-12)

    def test_csv_lines_six_decimals(self):
        m = AccuracyMatrix(2)
        m.set_entry(0, 0, 1 / 3)
        m.set_entry(1, 0, 0.5)
        m.set_entry(1, 1, 0.25)
        assert m.csv_lines() == ["0.333333", "0.500000,0.250000"]
