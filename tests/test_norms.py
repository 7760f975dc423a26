"""Normalization zoo: per-kind semantics, moment invariants, composition oracles."""

import numpy as np
import pytest

import streamcl.tensor as T
from streamcl.config import parse_config_text
from streamcl.norms import (
    BatchNorm,
    BlendedSpatialNorm,
    ContinualNorm,
    GroupNorm,
    InstanceNorm,
    LayerNorm,
    MomentNorm,
    NORM_KINDS,
    SplitParallelNorm,
    SwitchableNorm,
    make_norm,
)
from streamcl.tensor import InvalidConfig, OddChannelCount, Parameter, Tensor
from streamcl.trainer import Trainer
from test_tensor import moments

EPS = 1e-5


def np_softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def np_moments(x, axes):
    m = x.mean(axis=axes, keepdims=True)
    v = ((x - m) ** 2).mean(axis=axes, keepdims=True)
    return m, v


class TestBatchNorm:
    def test_hand_case(self):
        x = Tensor(np.array([1.0, 3.0, 5.0, 7.0]).reshape(4, 1, 1, 1))
        out = BatchNorm(1, epsilon=EPS)(x)
        np.testing.assert_allclose(
            out.data.reshape(-1), [-1.3416, -0.4472, 0.4472, 1.3416], atol=1e-3)

    def test_constant_channel_maps_to_beta(self):
        bn = BatchNorm(1, epsilon=EPS)
        bn.beta.data[:] = 2.0
        out = bn(Tensor(np.full((3, 1, 2, 2), 9.0)))
        assert np.max(np.abs(out.data - 2.0)) <= 1e-3

    def test_eval_with_fresh_running_stats(self):
        bn = BatchNorm(2, epsilon=EPS).eval()
        x = np.random.default_rng(0).normal(size=(3, 2, 2, 2))
        out = bn(Tensor(x))
        np.testing.assert_allclose(out.data, x / np.sqrt(1.0 + EPS), atol=1e-12)

    def test_running_stat_update_rule(self):
        bn = BatchNorm(1, momentum=0.1, epsilon=EPS)
        x = np.random.default_rng(1).normal(loc=3.0, size=(8, 1, 4, 4))
        bn(Tensor(x))
        bm, bv = x.mean(), ((x - x.mean()) ** 2).mean()
        assert bn.stats.mean[0] == pytest.approx(0.1 * bm, abs=1e-12)
        assert bn.stats.var[0] == pytest.approx(0.9 * 1.0 + 0.1 * bv, abs=1e-12)

    def test_eval_mode_does_not_update_stats(self):
        bn = BatchNorm(2).eval()
        before = (bn.stats.mean.copy(), bn.stats.var.copy())
        bn(Tensor(np.random.default_rng(2).normal(size=(4, 2, 2, 2))))
        np.testing.assert_array_equal(bn.stats.mean, before[0])
        np.testing.assert_array_equal(bn.stats.var, before[1])


class TestSpatialNorms:
    def test_instance_hand_case(self):
        x = Tensor(np.array([2.0, 4.0]).reshape(1, 1, 1, 2))
        out = InstanceNorm(1, epsilon=EPS)(x)
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-3)

    def test_layer_hand_case(self):
        x = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1, 1))
        out = LayerNorm(2, epsilon=EPS)(x)
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-3)

    def test_group_degenerations(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(3, 4, 4, 4)))
        ln = LayerNorm(4, epsilon=EPS)(x)
        gn1 = GroupNorm(4, 1, epsilon=EPS)(x)
        np.testing.assert_allclose(gn1.data, ln.data, atol=1e-12)
        inn = InstanceNorm(4, epsilon=EPS)(x)
        gnc = GroupNorm(4, 4, epsilon=EPS)(x)
        np.testing.assert_allclose(gnc.data, inn.data, atol=1e-12)

    def test_groups_must_divide(self):
        with pytest.raises(InvalidConfig):
            GroupNorm(4, 3)

    def test_train_eval_identical(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 4, 3, 3)))
        for layer in (InstanceNorm(4), LayerNorm(4), GroupNorm(4, 2)):
            a = layer.train()(x)
            b = layer.eval()(x)
            np.testing.assert_array_equal(a.data, b.data)

    def test_make_norm_dispatch(self):
        rng = np.random.default_rng(30)
        x = Tensor(rng.normal(size=(2, 4, 3, 3)))
        np.testing.assert_array_equal(make_norm("in", 4)(x).data,
                                      InstanceNorm(4, affine=False)(x).data)
        np.testing.assert_array_equal(make_norm("gn", 4, groups=2)(x).data,
                                      GroupNorm(4, 2, affine=False)(x).data)
        with pytest.raises(InvalidConfig):
            make_norm("spatial", 4)


class TestBlendedSpatialNorm:
    def test_degenerate_blend_equals_instance_norm(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 4, 3, 3)))
        layer = BlendedSpatialNorm(4, epsilon=EPS)
        layer.logits_mean.data[:] = [1000.0, 0.0]
        layer.logits_var.data[:] = [1000.0, 0.0]
        np.testing.assert_allclose(layer(x).data, InstanceNorm(4, epsilon=EPS)(x).data, atol=1e-12)

    def test_zero_logits_give_half_half(self):
        layer = BlendedSpatialNorm(4)
        np.testing.assert_array_equal(T.softmax(layer.logits_mean, axis=0).data, [0.5, 0.5])
        np.testing.assert_array_equal(T.softmax(layer.logits_var, axis=0).data, [0.5, 0.5])

    def test_single_channel_blend_irrelevant(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 1, 4, 4)))
        a = BlendedSpatialNorm(1, epsilon=EPS)
        b = BlendedSpatialNorm(1, epsilon=EPS)
        b.logits_mean.data[:] = [2.0, -1.0]
        b.logits_var.data[:] = [-3.0, 0.5]
        np.testing.assert_allclose(a(x).data, b(x).data, atol=1e-12)

    def test_blend_logits_receive_finite_gradients(self):
        rng = np.random.default_rng(7)
        layer = BlendedSpatialNorm(4)
        x = Tensor(rng.normal(size=(2, 4, 3, 3)))
        layer(x).sum().backward()
        for p in (layer.logits_mean, layer.logits_var):
            assert p.grad is not None and np.all(np.isfinite(p.grad))


class TestSwitchableNorm:
    def test_collapsed_onto_bn(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 3, 2, 2)))
        sn = SwitchableNorm(3, epsilon=EPS)
        sn.logits_mean.data[:] = [1000.0, 0.0, 0.0]
        sn.logits_var.data[:] = [1000.0, 0.0, 0.0]
        np.testing.assert_allclose(sn(x).data, BatchNorm(3, epsilon=EPS)(x).data, atol=1e-12)

    def test_zero_logits_equal_thirds(self):
        sn = SwitchableNorm(3)
        np.testing.assert_allclose(T.softmax(sn.logits_mean, axis=0).data, [1 / 3] * 3, atol=1e-15)

    def test_matches_numpy_moment_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 3, 3, 3))
        sn = SwitchableNorm(3, epsilon=EPS)
        sn.logits_mean.data[:] = rng.normal(size=3)
        sn.logits_var.data[:] = rng.normal(size=3)
        out = sn(Tensor(x))

        w = np_softmax(sn.logits_mean.data)
        wv = np_softmax(sn.logits_var.data)
        m_bn, v_bn = np_moments(x, (0, 2, 3))
        m_in, v_in = np_moments(x, (2, 3))
        m_ln, v_ln = np_moments(x, (1, 2, 3))
        mean = w[0] * m_bn + w[1] * m_in + w[2] * m_ln
        var = wv[0] * v_bn + wv[1] * v_in + wv[2] * v_ln
        expected = (x - mean) / np.sqrt(var + EPS)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_eval_uses_running_stats_for_bn_component(self):
        rng = np.random.default_rng(10)
        sn = SwitchableNorm(2, epsilon=EPS)
        sn(Tensor(rng.normal(size=(4, 2, 2, 2))))
        stored = sn.stats.mean.copy()
        sn.eval()
        x = rng.normal(size=(4, 2, 2, 2))
        out_eval = sn(Tensor(x))
        assert not np.allclose(out_eval.data, sn.train()(Tensor(x)).data)
        np.testing.assert_array_equal(sn.stats.mean, 0.9 * stored + 0.1 * np_moments(x, (0, 2, 3))[0].reshape(-1))


class TestContinualNorm:
    def test_matches_two_stage_numpy_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 4, 3, 3))
        cn = ContinualNorm(4, groups=2, epsilon=EPS)
        out = cn(Tensor(x))

        b, c, w, h = x.shape
        xr = x.reshape(b * 2, c // 2, w, h)
        m, v = np_moments(xr, (1, 2, 3))
        a_gn = ((xr - m) / np.sqrt(v + EPS)).reshape(b, c, w, h)
        m2, v2 = np_moments(a_gn, (0, 2, 3))
        expected = (a_gn - m2) / np.sqrt(v2 + EPS)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_bn_stats_tracked_on_gn_output(self):
        rng = np.random.default_rng(12)
        x = rng.normal(loc=5.0, size=(4, 2, 4, 4))
        cn = ContinualNorm(2, groups=1, epsilon=EPS)
        cn(Tensor(x))
        xr = x.reshape(4, 2, 4, 4)
        m, v = np_moments(xr, (1, 2, 3))
        a_gn = (xr - m) / np.sqrt(v + EPS)
        bm = a_gn.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(cn.bn.stats.mean, 0.1 * bm, atol=1e-12)

    def test_gn_stage_normalizes_per_instance(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(scale=2.0, size=(1, 4, 4, 4)))
        pre_bn = GroupNorm(4, 1, epsilon=EPS, affine=False)(x)
        m = pre_bn.data.mean()
        v = ((pre_bn.data - m) ** 2).mean()
        assert abs(m) <= 1e-6 and abs(v - 1.0) <= 1e-4

    def test_constant_input_collapses_to_beta(self):
        cn = ContinualNorm(2, groups=1, epsilon=EPS)
        cn.bn.beta.data[:] = 1.5
        out = cn(Tensor(np.full((2, 2, 2, 2), 4.0)))
        assert np.max(np.abs(out.data - 1.5)) <= 1e-3


class TestSplitParallelNorm:
    def test_requires_even_channels(self):
        with pytest.raises(OddChannelCount):
            SplitParallelNorm(3)

    def test_halves_equal_standalone_sublayers(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 6, 2, 2))
        spn = SplitParallelNorm(6, epsilon=EPS)
        out = spn(Tensor(x))
        bn_out = BatchNorm(3, epsilon=EPS)(Tensor(x[:, :3]))
        inln_out = BlendedSpatialNorm(3, epsilon=EPS)(Tensor(x[:, 3:]))
        np.testing.assert_array_equal(out.data[:, :3], bn_out.data)
        np.testing.assert_array_equal(out.data[:, 3:], inln_out.data)

    def test_hand_composition_small_tensor(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 2, 2, 2))
        out = SplitParallelNorm(2, epsilon=EPS)(Tensor(x))

        a1, a2 = x[:, :1], x[:, 1:]
        m, v = np_moments(a1, (0, 2, 3))
        expect1 = (a1 - m) / np.sqrt(v + EPS)
        m_in, v_in = np_moments(a2, (2, 3))
        m_ln, v_ln = np_moments(a2, (1, 2, 3))
        mean = 0.5 * m_in + 0.5 * m_ln
        var = 0.5 * v_in + 0.5 * v_ln
        expect2 = (a2 - mean) / np.sqrt(var + EPS)
        np.testing.assert_allclose(out.data[:, :1], expect1, atol=1e-12)
        np.testing.assert_allclose(out.data[:, 1:], expect2, atol=1e-12)

    def test_gradient_isolated_per_half(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 4, 2, 2))
        r = rng.normal(size=(2, 4, 2, 2))

        def grads(xv):
            spn = SplitParallelNorm(4, epsilon=EPS)
            (spn(Tensor(xv)) * Tensor(r)).sum().backward()
            return (spn.bn.gamma.grad.copy(), spn.inln.gamma.grad.copy())

        g_bn, g_inln = grads(x)
        bumped = x.copy()
        bumped[0, 0, 0, 0] += 0.3  # perturb the BN half only
        g_bn2, g_inln2 = grads(bumped)
        assert not np.allclose(g_bn, g_bn2)
        np.testing.assert_allclose(g_inln, g_inln2, atol=1e-12)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 4, 2, 2))
        perm = np.array([1, 0])

        spn = SplitParallelNorm(4, epsilon=EPS)
        gamma = rng.normal(size=2) + 1.0
        beta = rng.normal(size=2)
        spn.bn.gamma.data[0, :, 0, 0] = gamma
        spn.bn.beta.data[0, :, 0, 0] = beta
        base = spn(Tensor(x)).data

        spn2 = SplitParallelNorm(4, epsilon=EPS)
        spn2.bn.gamma.data[0, :, 0, 0] = gamma[perm]
        spn2.bn.beta.data[0, :, 0, 0] = beta[perm]
        xp = x.copy()
        xp[:, :2] = x[:, :2][:, perm]
        permuted = spn2(Tensor(xp)).data
        np.testing.assert_allclose(permuted[:, :2], base[:, :2][:, perm], atol=1e-12)
        np.testing.assert_allclose(permuted[:, 2:], base[:, 2:], atol=1e-12)

    def test_eval_mode_semantics(self):
        # BN half switches to running stats, the blend half recomputes per instance
        rng = np.random.default_rng(18)
        spn = SplitParallelNorm(4, epsilon=EPS)
        spn(Tensor(rng.normal(loc=2.0, size=(4, 4, 2, 2))))
        spn.eval()
        x = rng.normal(size=(4, 4, 2, 2))
        out = spn(Tensor(x)).data
        bn_eval = BatchNorm(2, epsilon=EPS)
        bn_eval.stats.mean = spn.bn.stats.mean.copy()
        bn_eval.stats.var = spn.bn.stats.var.copy()
        np.testing.assert_allclose(out[:, :2], bn_eval.eval()(Tensor(x[:, :2])).data, atol=1e-12)
        np.testing.assert_allclose(out[:, 2:], BlendedSpatialNorm(2, epsilon=EPS)(Tensor(x[:, 2:])).data, atol=1e-12)


class TestCrossKindInvariants:
    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_output_shape_preserved(self, kind):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(3, 4, 2, 2)))
        layer = make_norm(kind, 4, groups=2)
        assert layer(x).shape == x.shape

    @pytest.mark.parametrize("epsilon", [0.0, -1.0])
    @pytest.mark.parametrize("kind", NORM_KINDS + ("inln",))
    def test_epsilon_must_be_positive(self, kind, epsilon):
        with pytest.raises(InvalidConfig, match="epsilon"):
            if kind == "inln":
                BlendedSpatialNorm(4, epsilon=epsilon)
            else:
                make_norm(kind, 4, epsilon=epsilon)

    @pytest.mark.parametrize("kind,axes", [("bn", (0, 2, 3)), ("in", (2, 3)), ("ln", (1, 2, 3))])
    def test_pre_affine_moments(self, kind, axes):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(scale=1.5, size=(6, 4, 4, 4)))
        out = make_norm(kind, 4)(x)  # identity affine at init
        m = out.data.mean(axis=axes)
        v = ((out.data - out.data.mean(axis=axes, keepdims=True)) ** 2).mean(axis=axes)
        assert np.max(np.abs(m)) <= 1e-6
        assert np.max(np.abs(v - 1.0)) <= 1e-4

    def test_pre_affine_moments_gn(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(scale=1.5, size=(6, 4, 4, 4)))
        out = GroupNorm(4, 2)(x).data.reshape(12, 2, 4, 4)
        m = out.mean(axis=(1, 2, 3))
        v = ((out - out.mean(axis=(1, 2, 3), keepdims=True)) ** 2).mean(axis=(1, 2, 3))
        assert np.max(np.abs(m)) <= 1e-6
        assert np.max(np.abs(v - 1.0)) <= 1e-4

    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_gradients_flow_to_all_params(self, kind):
        rng = np.random.default_rng(22)
        layer = make_norm(kind, 4, groups=2)
        x = Tensor(rng.normal(size=(3, 4, 2, 2)))
        (layer(x) * Tensor(rng.normal(size=(3, 4, 2, 2)))).sum().backward()
        for p in layer.params():
            assert p.grad is not None and np.all(np.isfinite(p.grad)), p


def parent_norm(layer, x):
    """The per-kind formulas the zoo used before ``MomentNorm``, on ``layer``'s
    own parameters and running statistics, as a chain of tensor ops: the
    parity oracle."""
    def std(x, mean, var):
        return (x - mean) * T.power(var + layer.epsilon, -0.5)

    def batch_stats(x):
        """Batch moments and a running update in train mode, the running
        estimates in eval mode."""
        if not layer.training:
            return (Tensor(layer.stats.mean.reshape(1, -1, 1, 1)),
                    Tensor(layer.stats.var.reshape(1, -1, 1, 1)))
        mean, var = moments(x, (0, 2, 3))
        layer.stats.update(mean.data.reshape(-1), var.data.reshape(-1))
        return mean, var

    kind, e = layer.kind, T.take
    if kind == "cn":
        return parent_norm(layer.bn, parent_norm(layer.gn, x))
    if kind == "spn":
        h = x.shape[1] // 2
        a1, a2 = T.take(x, np.s_[:, :h]), T.take(x, np.s_[:, h:])
        return T.concat_channels(parent_norm(layer.bn, a1), parent_norm(layer.inln, a2))
    if kind == "bn":
        mean, var = batch_stats(x)
        xhat = std(x, mean, var)
    elif kind in ("in", "ln"):
        mean, var = moments(x, (2, 3) if kind == "in" else (1, 2, 3))
        xhat = std(x, mean, var)
    elif kind == "gn":
        b, c, w, h = x.shape
        xr = T.reshape(x, (b * layer.groups, c // layer.groups, w, h))
        mean, var = moments(xr, (1, 2, 3))
        xhat = T.reshape(std(xr, mean, var), (b, c, w, h))
    elif kind == "inln":
        mean_in, var_in = moments(x, (2, 3))
        mean_ln, var_ln = moments(x, (1, 2, 3))
        w, wv = T.softmax(layer.logits_mean, axis=0), T.softmax(layer.logits_var, axis=0)
        mean = e(w, 0) * mean_in + e(w, 1) * mean_ln
        var = e(wv, 0) * var_in + e(wv, 1) * var_ln
        xhat = std(x, mean, var)
    else:
        assert kind == "sn"
        mean_bn, var_bn = batch_stats(x)
        mean_in, var_in = moments(x, (2, 3))
        mean_ln, var_ln = moments(x, (1, 2, 3))
        w, wv = T.softmax(layer.logits_mean, axis=0), T.softmax(layer.logits_var, axis=0)
        mean = e(w, 0) * mean_bn + e(w, 1) * mean_in + e(w, 2) * mean_ln
        var = e(wv, 0) * var_bn + e(wv, 1) * var_in + e(wv, 2) * var_ln
        xhat = std(x, mean, var)
    return layer.gamma * xhat + layer.beta if layer.gamma is not None else xhat


class TestParentParity:
    """Parity with the per-kind formulas at the classifier's norm shapes and at
    degenerate ones: batch 1, 1x1 maps, and GN/CN with one group and with one
    channel per group (``kind:groups``), where sources have zero variance.

    Inputs are conv2d outputs, whose memory layout is transposed, as in the
    classifier. Parameters are random so every blend weight and affine term
    matters; a train-mode call precedes an eval-mode call, so the running
    statistics the eval call reads are the ones the train call wrote.

    The forward is the chain's arithmetic, so outputs and running statistics
    are bitwise equal. The backward is the closed-form rule, so gradients
    differ from the chain's by roundoff: at most 7.2e-15 of the reference's
    largest entry at the classifier's shapes and 2.4e-14 at the degenerate
    ones (measured, numpy 2.4.6 on OpenBLAS 0.3.31); GRAD_RTOL bounds both.
    """

    GRAD_RTOL = 1e-13

    @pytest.mark.parametrize("batch", [10, 64, 100, 1])
    @pytest.mark.parametrize("spatial", [8, 4, 1])
    @pytest.mark.parametrize("kind", [*NORM_KINDS, "gn:1", "gn:16", "cn:1", "cn:16"])
    def test_bitwise_equal_to_parent_formulas(self, kind, spatial, batch):
        rng = np.random.default_rng(23)
        kind, _, groups = kind.partition(":")
        layer, oracle = (make_norm(kind, 16, groups=int(groups or 2), prefix="clf.norm1")
                         for _ in range(2))
        for p, q in zip(layer.params(), oracle.params()):
            p.data[...] = q.data[...] = rng.normal(size=p.shape)
        kernel = Tensor(rng.normal(size=(16, 4, 3, 3)))

        def close(got, ref):
            return np.abs(got - ref).max() <= self.GRAD_RTOL * np.abs(ref).max()

        for mode in ("train", "eval"):
            for n in (layer, oracle):
                getattr(n, mode)()
            xs = T.conv2d(Tensor(rng.normal(size=(batch, 4, 2 * spatial, 2 * spatial))),
                          kernel, stride=2, padding=1).data
            assert batch == 1 or not xs.flags.c_contiguous  # one image is both layouts
            g = Tensor(rng.normal(size=xs.shape))
            x, x_ref = Tensor(xs, requires_grad=True), Tensor(xs, requires_grad=True)
            out, ref = layer(x), parent_norm(oracle, x_ref)
            (out * g).sum().backward()
            (ref * g).sum().backward()
            assert np.array_equal(out.data, ref.data), mode
            assert close(x.grad, x_ref.grad), mode
            for p, q in zip(layer.params(), oracle.params()):
                assert p.name == q.name and close(p.grad, q.grad), (mode, p.name)
                p.grad = q.grad = None
            bufs, ref_bufs = layer.buffers(), oracle.buffers()
            assert bufs.keys() == ref_bufs.keys()
            assert all(np.array_equal(bufs[k], ref_bufs[k]) for k in bufs), mode


TOY_RUN = """
[stream]
kind = gaussian_blobs
tasks = 2
samples_per_task = 30
test_samples = 20
[encoder]
stage_channels = 4,4,8,8
[model]
norm_kind = {kind}
feature_channels = 4
[replay]
capacity = 20
replay_batch = 8
[loss]
n_per_task = 5
[train]
batch = 10
"""


def _randomized(kind, rng, channels=4):
    """A layer of ``kind`` with random blend logits, affine terms and running statistics."""
    layer = make_norm(kind, channels, groups=2)
    for p in layer.params():
        p.data[...] = rng.normal(size=p.shape)
    for n in (layer, *layer.children()):
        if getattr(n, "stats", None) is not None:
            n.stats.mean = rng.normal(size=n.stats.mean.shape)
            n.stats.var = rng.uniform(0.5, 2.0, size=n.stats.var.shape)
    return layer


class TestFusedNode:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_finite_differences(self, kind, mode):
        rng = np.random.default_rng(24)
        layer = getattr(_randomized(kind, rng), mode)()
        x = Parameter(rng.normal(size=(3, 4, 3, 3)), "x")
        r = Tensor(rng.normal(size=x.shape))
        report = T.finite_difference_check(lambda: (layer(x) * r).sum(), [x, *layer.params()],
                                           step=1e-6, tol=1e-4)
        assert report.passed, report

    @pytest.mark.parametrize("kind,nodes", [("bn", 1), ("in", 1), ("ln", 1), ("gn", 1), ("sn", 3),
                                            ("inln", 3), ("cn", 2), ("spn", 7)])
    def test_graph_nodes_per_call(self, kind, nodes):
        # one node per MomentNorm, plus the blend softmaxes and the spn split and concat
        layer = BlendedSpatialNorm(4) if kind == "inln" else make_norm(kind, 4, groups=2)
        x = Tensor(np.random.default_rng(25).normal(size=(3, 4, 2, 2)), requires_grad=True)
        seen, stack = set(), [layer.train()(x)]
        while stack:
            node = stack.pop()
            if id(node) not in seen and node._backward is not None:
                seen.add(id(node))
                stack.extend(node._parents)
        assert len(seen) == nodes

    @pytest.mark.parametrize("kind", NORM_KINDS)
    def test_whole_run_equals_parent_chain(self, kind, monkeypatch):
        # running statistics and the SGD trajectory over two tasks, not one call:
        # the accuracy matrix is bitwise the chain's, and the classifier's
        # weights and running statistics differ from it by the gradients'
        # roundoff (at most 4.4e-16 measured; numpy 2.4.6 on OpenBLAS 0.3.31)
        def run():
            trainer = Trainer(parse_config_text(TOY_RUN.format(kind=kind)), seed=0)
            state = trainer.run(trainer.build_state())
            return state.classifier.state(), state.matrix.a.tobytes()

        shipped, matrix = run()
        for cls in (MomentNorm, ContinualNorm, SplitParallelNorm):
            monkeypatch.setattr(cls, "__call__", parent_norm)
        ref, ref_matrix = run()
        assert matrix == ref_matrix
        assert shipped.keys() == ref.keys()
        for name in ref:
            assert np.abs(shipped[name] - ref[name]).max() <= 1e-14, name
