"""Encoder: determinism, pyramid shapes, mixing oracles, file container."""

import numpy as np
import pytest

import streamcl.encoder as encoder_module
import streamcl.tensor as T
from streamcl.encoder import (
    AGGREGATE_MODES,
    MixerWeights,
    MultiScaleEncoder,
    StoredPyramidEncoder,
    aggregate,
    load_pyramid_file,
    mix_ccm,
    save_pyramid_file,
)
from streamcl.tensor import InvalidConfig, Parameter, ShapeMismatch, Tensor

CHANNELS = (8, 16, 32, 64)


def small_encoder(seed=0, cs=(2, 2, 4, 4), cin=1):
    return MultiScaleEncoder.from_seed(seed, cin, cs)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = MultiScaleEncoder.from_seed(7, 1, CHANNELS)
        b = MultiScaleEncoder.from_seed(7, 1, CHANNELS)
        assert a.kernel_bytes() == b.kernel_bytes()

    def test_different_seeds_differ(self):
        a = MultiScaleEncoder.from_seed(7, 1, CHANNELS)
        b = MultiScaleEncoder.from_seed(8, 1, CHANNELS)
        assert a.kernel_bytes() != b.kernel_bytes()

    def test_pyramid_dims_halve(self):
        enc = MultiScaleEncoder.from_seed(0, 1, CHANNELS)
        pyr = enc.extract(Tensor(np.zeros((2, 1, 32, 32))))
        assert [l.shape[2] for l in pyr] == [16, 8, 4, 2]
        assert [l.shape[1] for l in pyr] == list(CHANNELS)

    def test_non_monotone_channels_rejected(self):
        with pytest.raises(InvalidConfig):
            MultiScaleEncoder.from_seed(0, 1, (8, 4, 16, 32))

    def test_indivisible_dims_rejected(self):
        enc = small_encoder()
        with pytest.raises(InvalidConfig):
            enc.extract(Tensor(np.zeros((1, 1, 20, 32))))

    def test_channel_mismatch_rejected(self):
        enc = small_encoder(cin=3)
        with pytest.raises(ShapeMismatch):
            enc.extract(Tensor(np.zeros((1, 1, 32, 32))))


class TestExtract:
    def test_zero_image_zero_pyramid(self):
        enc = small_encoder()
        pyr = enc.extract(Tensor(np.zeros((1, 1, 32, 32))))
        for lvl in pyr:
            assert np.all(lvl.data == 0.0)

    def test_kernels_never_receive_gradients(self):
        enc = MultiScaleEncoder.from_seed(0, 1, (2, 2, 4, 4), aggregate_channels=3)
        x = Parameter(np.random.default_rng(0).normal(size=(1, 1, 32, 32)), "img")
        for mode in AGGREGATE_MODES:
            aggregate(enc.extract(x), mode, enc.mixer).sum().backward()
        assert x.grad is not None
        assert enc.mixer.output is not None
        for kernel in enc.stages + enc.mixer.all_kernels():
            assert kernel.grad is None

    def test_single_pixel_perturbation_is_local(self):
        enc = small_encoder(seed=3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 32, 32))
        base = enc.extract(Tensor(x))[0].data
        bumped = x.copy()
        bumped[0, 0, 16, 16] += 1.0
        diff = np.abs(enc.extract(Tensor(bumped))[0].data - base)
        assert diff.max() > 0
        changed = np.argwhere(diff[0].max(axis=0) > 0)
        assert np.all(np.abs(changed - 8) <= 1)  # receptive field of input pixel 16


class TestMixing:
    def test_ccm_identity_kernels(self):
        enc = small_encoder()
        pyr = enc.extract(Tensor(np.random.default_rng(2).normal(size=(1, 1, 32, 32))))
        for i, c in enumerate(enc.stage_channels):
            eye = np.zeros((c, c, 1, 1))
            eye[np.arange(c), np.arange(c), 0, 0] = 1.0
            enc.mixer.ccm[i] = Tensor(eye)
        mixed = mix_ccm(pyr, enc.mixer)
        for a, b in zip(pyr, mixed):
            np.testing.assert_allclose(a.data, b.data, atol=1e-15)

    def test_ccm_shapes_preserved(self):
        enc = small_encoder()
        pyr = enc.extract(Tensor(np.random.default_rng(3).normal(size=(2, 1, 32, 32))))
        mixed = mix_ccm(pyr, enc.mixer)
        for a, b in zip(pyr, mixed):
            assert a.shape == b.shape

    def test_ccm_is_per_pixel_matmul(self):
        enc = small_encoder(seed=5)
        pyr = enc.extract(Tensor(np.random.default_rng(4).normal(size=(1, 1, 32, 32))))
        mixed = mix_ccm(pyr, enc.mixer)
        lvl, k, out = pyr[1].data, enc.mixer.ccm[1].data, mixed[1].data
        for w in range(lvl.shape[2]):
            for h in range(lvl.shape[3]):
                np.testing.assert_allclose(
                    out[0, :, w, h], k[:, :, 0, 0] @ lvl[0, :, w, h], atol=1e-12)


class TestAggregate:
    def test_zero_pyramid_zero_everywhere(self):
        enc = small_encoder()
        pyr = enc.extract(Tensor(np.zeros((1, 1, 32, 32))))
        for mode in ("standard", "bottom_up", "top_down"):
            out = aggregate(pyr, mode, enc.mixer)
            assert np.all(out.data == 0.0)

    def test_mode_output_shapes(self):
        enc = MultiScaleEncoder.from_seed(0, 1, CHANNELS)
        pyr = enc.extract(Tensor(np.random.default_rng(5).normal(size=(2, 1, 32, 32))))
        td = aggregate(pyr, "top_down", enc.mixer)
        st = aggregate(pyr, "standard", enc.mixer)
        bu = aggregate(pyr, "bottom_up", enc.mixer)
        assert td.shape == (2, 8, 16, 16)
        assert st.shape == (2, 64, 2, 2)
        assert bu.shape == (2, 64, 2, 2)
        assert td.shape != st.shape

    def test_standard_runs_only_the_deepest_ccm(self, monkeypatch):
        enc = MultiScaleEncoder.from_seed(0, 1, CHANNELS)
        x = Tensor(np.random.default_rng(12).normal(size=(3, 1, 32, 32)))
        deepest = enc.extract(x)[3]
        expected = T.conv2d(deepest, enc.mixer.ccm[3], stride=1, padding=0)
        calls = []

        def counting_conv(*args, **kwargs):
            calls.append(args[0].shape)
            return T.conv2d(*args, **kwargs)

        monkeypatch.setattr(encoder_module, "conv2d", counting_conv)
        out = enc.features(x, "standard")
        assert len(calls) == 5  # four stages and one ccm
        assert np.array_equal(out.data, expected.data)

    def test_top_down_two_level_hand_composition(self):
        rng = np.random.default_rng(6)
        l1 = rng.normal(size=(1, 2, 8, 8))
        l2 = rng.normal(size=(1, 4, 4, 4))
        ccm1, ccm2 = rng.normal(size=(2, 2, 1, 1)), rng.normal(size=(4, 4, 1, 1))
        td = rng.normal(size=(2, 4, 3, 3))
        mixer = MixerWeights([ccm1, ccm2], [td], [])
        pyr = [Tensor(l1), Tensor(l2)]
        out = aggregate(pyr, "top_down", mixer)

        m1 = T.conv2d(Tensor(l1), Tensor(ccm1), 1, 0)
        m2 = T.conv2d(Tensor(l2), Tensor(ccm2), 1, 0)
        expected = m1 + T.conv2d(T.bilinear_up2x(m2), Tensor(td), 1, 1)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_bottom_up_two_level_hand_composition(self):
        rng = np.random.default_rng(13)
        l1 = rng.normal(size=(1, 2, 8, 8))
        l2 = rng.normal(size=(1, 4, 4, 4))
        ccm1, ccm2 = rng.normal(size=(2, 2, 1, 1)), rng.normal(size=(4, 4, 1, 1))
        bu = rng.normal(size=(4, 2, 3, 3))
        mixer = MixerWeights([ccm1, ccm2], [], [bu])
        out = aggregate([Tensor(l1), Tensor(l2)], "bottom_up", mixer)

        m1 = T.conv2d(Tensor(l1), Tensor(ccm1), 1, 0)
        m2 = T.conv2d(Tensor(l2), Tensor(ccm2), 1, 0)
        pooled = m1.data.reshape(1, 2, 4, 2, 4, 2).max(axis=(3, 5))
        expected = m2 + T.conv2d(Tensor(pooled), Tensor(bu), 1, 1)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    def test_aggregate_differentiable_wrt_image(self):
        enc = small_encoder(seed=9)
        rng = np.random.default_rng(7)
        x = Parameter(rng.normal(size=(1, 1, 16, 16)), "img")
        report = T.finite_difference_check(
            lambda: aggregate(enc.extract(x), "top_down", enc.mixer).sum(),
            [x], step=1e-5, tol=1e-4)
        assert report.passed, report

    def test_kernels_frozen_across_use(self):
        enc = small_encoder(seed=11)
        before = enc.kernel_bytes()
        x = Parameter(np.random.default_rng(8).normal(size=(1, 1, 32, 32)), "img")
        for mode in ("standard", "bottom_up", "top_down"):
            aggregate(enc.extract(x), mode, enc.mixer).sum().backward()
        assert enc.kernel_bytes() == before


class TestPyramidFile:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(9)
        levels = [rng.normal(size=(3, 2, 8, 8)), rng.normal(size=(3, 4, 4, 4))]
        path = tmp_path / "pyr.bin"
        save_pyramid_file(path, levels)
        loaded = load_pyramid_file(path)
        assert len(loaded) == 2
        for a, b in zip(levels, loaded):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(InvalidConfig):
            load_pyramid_file(path)

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "pyr.bin"
        save_pyramid_file(path, [rng.normal(size=(1, 1, 2, 2))])
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(InvalidConfig):
            load_pyramid_file(path)

    def test_stored_encoder_serves_slices(self, tmp_path):
        enc = small_encoder(seed=13)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 1, 32, 32))
        pyr = enc.extract(Tensor(x))
        path = tmp_path / "pyr.bin"
        save_pyramid_file(path, [l.data for l in pyr])
        stored = StoredPyramidEncoder.from_file(path, enc.mixer, 1, enc.stage_channels, 32)

        idx = np.array([4, 0, 2])
        live = aggregate(enc.extract(Tensor(x[idx])), "top_down", enc.mixer)
        served = aggregate(stored.extract(None, idx), "top_down", enc.mixer)
        np.testing.assert_allclose(served.data, live.data, atol=1e-12)

    def test_stored_encoder_index_bounds(self, tmp_path):
        path = tmp_path / "pyr.bin"
        save_pyramid_file(path, [np.zeros((2, 1, 4, 4))])
        stored = StoredPyramidEncoder.from_file(path, None, 1, (1,), 8)
        with pytest.raises(InvalidConfig):
            stored.extract(None, [0, 5])
