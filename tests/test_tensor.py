"""Tensor core: forward semantics, backward rules, and the finite-difference oracle."""

import inspect
import sys
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import streamcl.tensor as T
from streamcl import checks
from streamcl.config import parse_config_text
from streamcl.tensor import (
    DetachedTape,
    InvalidConfig,
    NondeterministicFunction,
    NotScalar,
    Parameter,
    ShapeMismatch,
    Tensor,
)
from streamcl.trainer import run_experiment


def conv2d_loop(x, k, stride, padding):
    """Brute-force sliding-window cross-correlation oracle."""
    b, cin, w, h = x.shape
    co, _, ks, _ = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    wo = (w + 2 * padding - ks) // stride + 1
    ho = (h + 2 * padding - ks) // stride + 1
    out = np.zeros((b, co, wo, ho))
    for bb in range(b):
        for oo in range(co):
            for ww in range(wo):
                for hh in range(ho):
                    acc = 0.0
                    for cc in range(cin):
                        for i in range(ks):
                            for j in range(ks):
                                acc += xp[bb, cc, ww * stride + i, hh * stride + j] * k[oo, cc, i, j]
                    out[bb, oo, ww, hh] = acc
    return out


def conv2d_einsum(x, k, stride, padding, g):
    """(out, gk, gx) by the einsum formulation conv2d used before im2col.

    Kept as a bitwise oracle: the im2col GEMM hands BLAS the same operands
    that einsum's matmul decomposition builds, so the two must agree exactly.
    """
    ks = k.shape[2]
    b, cin, w, h = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (ks, ks), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.einsum("bcwhij,ocij->bowh", win, k, optimize=True)
    wo, ho = out.shape[2:]
    gk = np.einsum("bowh,bcwhij->ocij", g, win, optimize=True)
    gxp = np.zeros_like(xp)
    for i in range(ks):
        for j in range(ks):
            gij = np.einsum("bowh,oc->bcwh", g, k[:, :, i, j], optimize=True)
            gxp[:, :, i:i + stride * wo:stride, j:j + stride * ho:stride] += gij
    return out, gk, gxp[:, :, padding:padding + w, padding:padding + h]


# (Cin, Cout, input side, kernel, stride, padding) of every conv the default
# config runs: stage_channels 8,16,32,64 on 32x32 single-channel input and
# feature_channels 16
DEFAULT_CONVS = {
    "stage1": (1, 8, 32, 3, 2, 1),
    "stage2": (8, 16, 16, 3, 2, 1),
    "stage3": (16, 32, 8, 3, 2, 1),
    "stage4": (32, 64, 4, 3, 2, 1),
    "ccm1": (8, 8, 16, 1, 1, 0),
    "ccm2": (16, 16, 8, 1, 1, 0),
    "ccm3": (32, 32, 4, 1, 1, 0),
    "ccm4": (64, 64, 2, 1, 1, 0),
    "top_down1": (16, 8, 16, 3, 1, 1),
    "top_down2": (32, 16, 8, 3, 1, 1),
    "top_down3": (64, 32, 4, 3, 1, 1),
    "bottom_up1": (8, 16, 8, 3, 1, 1),
    "bottom_up2": (16, 32, 4, 3, 1, 1),
    "bottom_up3": (32, 64, 2, 3, 1, 1),
    "clf_conv1": (8, 16, 16, 3, 2, 1),
    "clf_conv2": (16, 16, 8, 3, 2, 1),
}


def upsample_loop(x):
    """Scalar-loop bilinear 2x oracle, align-corners-false."""
    b, c, w, h = x.shape
    out = np.zeros((b, c, 2 * w, 2 * h))
    for bb in range(b):
        for cc in range(c):
            for i in range(2 * w):
                for j in range(2 * h):
                    sx = min(max((i + 0.5) / 2 - 0.5, 0.0), w - 1.0)
                    sy = min(max((j + 0.5) / 2 - 0.5, 0.0), h - 1.0)
                    x0, y0 = int(np.floor(sx)), int(np.floor(sy))
                    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
                    fx, fy = sx - x0, sy - y0
                    out[bb, cc, i, j] = (
                        x[bb, cc, x0, y0] * (1 - fx) * (1 - fy)
                        + x[bb, cc, x1, y0] * fx * (1 - fy)
                        + x[bb, cc, x0, y1] * (1 - fx) * fy
                        + x[bb, cc, x1, y1] * fx * fy
                    )
    return out


class TestElementwise:
    def test_add(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_relu(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("case", ["special", "transposed", "random"])
    def test_relu_bytes_match_where(self, case):
        """Same bytes and layout as ``np.where(a > 0, a, 0.0)``, special values included."""
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny,
                            np.finfo(np.float64).tiny, np.finfo(np.float64).max, -1.0, 2.5])
        rng = np.random.default_rng(5)
        a = {"special": special,
             "transposed": rng.normal(size=(4, 8, 6, 6)).transpose(1, 0, 3, 2),
             "random": rng.normal(size=(32, 8, 16, 16))}[case]
        ref = np.where(a > 0, a, 0.0)
        out = T.relu(Tensor(a)).data
        assert out.strides == ref.strides
        assert out.tobytes() == ref.tobytes()

    def test_mul_gradient(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, [3.0])
        np.testing.assert_array_equal(b.grad, [2.0])

    def test_scalar_with_tensor(self):
        out = Tensor([1.0, 2.0]) * 2.0
        np.testing.assert_array_equal(out.data, [2.0, 4.0])

    def test_scalar_mul(self):
        out = T.mul(Tensor([1.0, 2.0]), 3.0)
        np.testing.assert_array_equal(out.data, [3.0, 6.0])
        with pytest.raises(ShapeMismatch):
            T.mul(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
        with pytest.raises(TypeError):
            T.mul(Tensor([1.0]), "2")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    def test_keepdims_broadcast(self):
        x = Tensor(np.ones((2, 4, 3, 3)), requires_grad=True)
        m = Tensor(np.full((1, 4, 1, 1), 0.5))
        out = (x - m).sum()
        assert out.item() == pytest.approx(0.5 * 2 * 4 * 9)
        out.backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 4, 3, 3)))


class TestConv2d:
    def test_identity_1x1(self):
        x = Tensor(np.array([[[[5.0]]]]))
        k = Tensor(np.array([[[[1.0]]]]))
        out = T.conv2d(x, k, stride=1, padding=0)
        np.testing.assert_array_equal(out.data, [[[[5.0]]]])

    def test_ones_kernel_padded_2x2(self):
        # every 3x3 window over the zero-padded 2x2 of ones covers all four ones
        x = Tensor(np.ones((1, 1, 2, 2)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, k, stride=1, padding=1)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_ones_kernel_padded_3x3_window_sums(self):
        # hand enumeration: corners 4, edges 6, center 9
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, k, stride=1, padding=1)
        expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
        np.testing.assert_array_equal(out.data[0, 0], expected)

    @pytest.mark.parametrize("stride,padding,k", [(1, 0, 1), (1, 1, 3), (2, 1, 3), (2, 0, 3)])
    def test_matches_loop_oracle(self, stride, padding, k):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, k, k))
        out = T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, conv2d_loop(x, w, stride, padding), atol=1e-12)

    def test_kernel_gradient_is_linear_exact(self):
        # sum(conv(x, w)) is linear in w, so finite differences are exact to roundoff
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 2, 4, 4)))
        w = Parameter(rng.normal(size=(3, 2, 3, 3)), "w")
        report = T.finite_difference_check(
            lambda: T.conv2d(x, w, stride=1, padding=1).sum(), [w], step=1e-5, tol=1e-6
        )
        assert report.passed, report

    def test_bad_configs(self):
        x = Tensor(np.ones((1, 2, 4, 4)))
        with pytest.raises(ShapeMismatch):
            T.conv2d(x, Tensor(np.ones((1, 3, 3, 3))), 1, 1)
        with pytest.raises(InvalidConfig):
            T.conv2d(x, Tensor(np.ones((1, 2, 5, 5))), 1, 2)
        with pytest.raises(InvalidConfig):
            T.conv2d(x, Tensor(np.ones((1, 2, 3, 3))), 3, 1)


class TestConv2dParity:
    @pytest.mark.parametrize("batch", [1, 10, 64, 100])
    @pytest.mark.parametrize("name", sorted(DEFAULT_CONVS))
    def test_bitwise_equal_to_einsum(self, name, batch):
        cin, cout, side, ks, stride, padding = DEFAULT_CONVS[name]
        rng = np.random.default_rng(batch)
        x = Tensor(rng.normal(size=(batch, cin, side, side)), requires_grad=True)
        k = Tensor(rng.normal(size=(cout, cin, ks, ks)), requires_grad=True)
        out = T.conv2d(x, k, stride=stride, padding=padding)
        # gradients arrive C-ordered (from a reshape) or in the conv output's
        # own layout (from an elementwise op on it)
        g_c = rng.normal(size=out.shape)
        g_k = np.empty_like(out.data)
        g_k[...] = rng.normal(size=out.shape)
        for g in (g_c, g_k):
            ref_out, ref_gk, ref_gx = conv2d_einsum(x.data, k.data, stride, padding, g)
            gx, gk = out._backward(g)
            assert np.array_equal(out.data, ref_out)
            assert np.array_equal(gk, ref_gk)
            assert np.array_equal(gx, ref_gx)
            # later reductions follow memory order; a size-1 axis has none
            # (at batch 1 einsum reports a C stride there, im2col a transposed one)
            sized = [a for a in range(4) if out.shape[a] > 1]
            assert ([out.data.strides[a] for a in sized]
                    == [ref_out.strides[a] for a in sized])
            assert gx.strides == ref_gx.strides

    def test_frozen_input_gets_no_gradient(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 8, 16, 16)))
        k = Parameter(rng.normal(size=(16, 8, 3, 3)), "k")
        out = T.conv2d(x, k, stride=2, padding=1)
        gx, gk = out._backward(np.ones(out.shape))
        assert gx is None and gk.shape == k.shape
        out.sum().backward()
        assert x.grad is None and k.grad is not None

    @pytest.mark.parametrize("case", ["trainable", "frozen kernel", "no_grad"])
    def test_columns_kept_only_for_a_trainable_kernel(self, case, monkeypatch):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 8, 16, 16)), requires_grad=True)
        k = Tensor(rng.normal(size=(16, 8, 3, 3)), requires_grad=case != "frozen kernel")
        made = []  # shape and weak reference of every array conv2d takes from np.empty

        def empty(*args, **kwargs):
            arr = np.empty(*args, **kwargs)
            made.append((arr.shape, weakref.ref(arr)))
            return arr

        view = types.ModuleType("numpy")
        view.__dict__.update(vars(np))
        view.empty = empty
        monkeypatch.setattr(T, "np", view)
        if case == "no_grad":
            with T.no_grad():
                out = T.conv2d(x, k, stride=2, padding=1)
        else:
            out = T.conv2d(x, k, stride=2, padding=1)
        monkeypatch.undo()
        assert [shape for shape, _ in made] == [(8, 3, 3, 3, 8, 8)]  # the im2col columns
        assert (made[0][1]() is not None) == (case == "trainable"), case
        if case == "frozen kernel":
            out.sum().backward()
            assert x.grad is not None and k.grad is None

    def test_strided_padded_input_gradient(self):
        rng = np.random.default_rng(5)
        x = Parameter(rng.normal(size=(2, 3, 8, 8)), "x")
        k = Tensor(rng.normal(size=(4, 3, 3, 3)))
        report = T.finite_difference_check(
            lambda: T.power(T.conv2d(x, k, stride=2, padding=1), 2).sum(), [x], step=1e-6, tol=1e-4)
        assert report.passed, report


class TestResample:
    def test_maxpool_window(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = T.maxpool2x2(x)
        np.testing.assert_array_equal(out.data, [[[[4.0]]]])

    def test_maxpool_odd_dims(self):
        with pytest.raises(InvalidConfig):
            T.maxpool2x2(Tensor(np.ones((1, 1, 3, 4))))

    def test_bilinear_constant(self):
        x = Tensor(np.full((1, 2, 3, 3), 7.5))
        out = T.bilinear_up2x(x)
        np.testing.assert_allclose(out.data, np.full((1, 2, 6, 6), 7.5), atol=1e-12)

    def test_bilinear_row_hand_case(self):
        # evaluating the align-corners-false formula by hand on [0, 2]
        x = Tensor(np.array([0.0, 2.0]).reshape(1, 1, 1, 2))
        out = T.bilinear_up2x(x)
        np.testing.assert_allclose(out.data[0, 0, 0], [0.0, 0.5, 1.5, 2.0], atol=1e-12)
        np.testing.assert_allclose(out.data[0, 0, 1], [0.0, 0.5, 1.5, 2.0], atol=1e-12)

    def test_bilinear_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 2, 3, 5))
        out = T.bilinear_up2x(Tensor(x))
        np.testing.assert_allclose(out.data, upsample_loop(x), atol=1e-12)


def moments(a, axes):
    """Mean and biased variance over ``axes``, reduced axes kept at extent 1,
    as the chain of ``sum_``, ``mul`` and ``sub`` the normalization layers
    replay."""
    scale = 1.0 / int(np.prod([a.shape[i] for i in axes]))
    mean = T.sum_(a, axes, keepdims=True) * scale
    diff = T.sub(a, mean)
    return mean, T.sum_(T.mul(diff, diff), axes, keepdims=True) * scale


class TestMoments:
    def test_hand_case(self):
        mean, var = moments(Tensor([1.0, 3.0, 5.0, 7.0]), axes=(0,))
        assert mean.item() == pytest.approx(4.0)
        assert var.item() == pytest.approx(5.0)  # (9+1+1+9)/4

    def test_constant_zero_var(self):
        _, var = moments(Tensor(np.full((2, 3), 2.5)), axes=(0, 1))
        assert var.item() == 0.0

    def test_per_channel_matches_loop(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 2, 1, 1))
        mean, var = moments(Tensor(x), axes=(0, 2, 3))
        for c in range(2):
            vals = [x[b, c, 0, 0] for b in range(2)]
            m = sum(vals) / 2
            v = sum((u - m) ** 2 for u in vals) / 2
            assert mean.data[0, c, 0, 0] == pytest.approx(m, abs=1e-15)
            assert var.data[0, c, 0, 0] == pytest.approx(v, abs=1e-15)

    def test_centering_and_nonneg(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = Tensor(rng.normal(size=(3, 4, 2, 2)))
            mean, var = moments(x, axes=(0, 2, 3))
            assert np.all(var.data >= 0)
            centered = T.sum_(x - mean, (0, 2, 3), keepdims=True) * (1.0 / 12)
            assert np.max(np.abs(centered.data)) <= 1e-12

    def test_empty_axes(self):
        with pytest.raises(InvalidConfig):
            moments(Tensor([1.0]), axes=())


def split(x):
    """The channel halves the split-parallel norm takes."""
    h = x.shape[1] // 2
    return T.take(x, np.s_[:, :h]), T.take(x, np.s_[:, h:])


class TestSplitConcat:
    def test_split_shapes(self):
        x = Tensor(np.arange(16.0).reshape(1, 8, 1, 2))
        a, b = split(x)
        assert a.shape == (1, 4, 1, 2) and b.shape == (1, 4, 1, 2)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 6, 2, 2)))
        a, b = split(x)
        back = T.concat_channels(a, b)
        np.testing.assert_array_equal(back.data, x.data)

    def test_gradient_roundtrip_exact(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 4, 2, 2)), requires_grad=True)
        a, b = split(x)
        w = rng.normal(size=(2, 4, 2, 2))
        (T.concat_channels(a, b) * Tensor(w)).sum().backward()
        np.testing.assert_array_equal(x.grad, w)

    def test_gradient_routes_to_matching_half(self):
        x = Tensor(np.ones((1, 4, 1, 1)), requires_grad=True)
        a, _b = split(x)
        a.sum().backward()
        np.testing.assert_array_equal(x.grad[0, :, 0, 0], [1.0, 1.0, 0.0, 0.0])


def parent_gathers():
    """The five gather ops ``take`` replaced, as they were: the parity oracle."""
    def element(a, i):
        def backward(g):
            full = np.zeros_like(a.data)
            full.reshape(-1)[i] = g
            return (full,)
        return T._from_op(np.float64(a.data.reshape(-1)[i]), (a,), backward)

    def take_rows(a, rows):
        idx = np.asarray(rows, dtype=np.int64)

        def backward(g):
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            return (full,)
        return T._from_op(a.data[idx].copy(), (a,), backward)

    def take_columns(a, cols):
        idx = np.asarray(cols, dtype=np.int64)

        def backward(g):
            full = np.zeros_like(a.data)
            np.add.at(full.T, idx, g.T)
            return (full,)
        return T._from_op(a.data[:, idx].copy(), (a,), backward)

    def pick(x, indices):
        idx, rows = np.asarray(indices, dtype=np.int64), np.arange(x.shape[0])

        def backward(g):
            full = np.zeros_like(x.data)
            np.add.at(full, (rows, idx), g)
            return (full,)
        return T._from_op(x.data[rows, idx].copy(), (x,), backward)

    def split_halves(x):
        h = x.shape[1] // 2

        def bw_lo(g):
            full = np.zeros_like(x.data)
            full[:, :h] = g
            return (full,)

        def bw_hi(g):
            full = np.zeros_like(x.data)
            full[:, h:] = g
            return (full,)
        return (T._from_op(x.data[:, :h].copy(), (x,), bw_lo),
                T._from_op(x.data[:, h:].copy(), (x,), bw_hi))

    return element, take_rows, take_columns, pick, split_halves


class TestTake:
    """``take`` against the parent's gather ops: equal forward values, equal
    gradients with equal memory layout, and C-ordered split halves."""

    @staticmethod
    def assert_same(out, ref, rng):
        assert np.array_equal(out.data, ref.data) and out.data.shape == ref.data.shape
        g = rng.normal(size=out.shape)
        (gout,), (gref,) = out._backward(g), ref._backward(g)
        assert np.array_equal(gout, gref) and gout.strides == gref.strides

    def test_matches_parent_gathers(self):
        element, take_rows, take_columns, pick, _ = parent_gathers()
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = Parameter(rng.normal(size=(7, 5)), "m")
            w = Parameter(rng.normal(size=(3,)), "w")
            x = Parameter(rng.normal(size=(2, 3, 4, 4)), "x")
            labels = rng.integers(0, 5, size=7)
            rows, cols = np.flatnonzero(labels % 2 == 0), np.array([1, 3, 4])
            for i in range(3):
                self.assert_same(T.take(w, i), element(w, i), rng)
            self.assert_same(T.take(x, (0, 0, 0, 0)), element(x, 0), rng)
            self.assert_same(T.take(m, (np.arange(7), labels)), pick(m, labels), rng)
            # one node where the parent took two: chain their backward rules
            one, inner = T.take(m, np.ix_(rows, cols)), take_rows(m, rows)
            two = take_columns(inner, cols)
            assert np.array_equal(one.data, two.data)
            g = rng.normal(size=one.shape)
            (g_one,), (g_two,) = one._backward(g), inner._backward(two._backward(g)[0])
            assert np.array_equal(g_one, g_two) and g_one.strides == g_two.strides

    def test_split_of_conv_output_matches_parent(self):
        *_, split_halves = parent_gathers()
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(64, 8, 16, 16)))
        k = Parameter(rng.normal(size=(16, 8, 3, 3)), "k")
        y = T.conv2d(x, k, stride=2, padding=1)  # transposed memory layout
        assert not y.data.flags.c_contiguous
        for out, ref in zip(split(y), split_halves(y)):
            self.assert_same(out, ref, rng)
            assert out.data.flags.c_contiguous

    def test_repeated_index_sums_its_gradient(self):
        a = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = T.take(a, [0, 0, 2])
        assert np.array_equal(out.data, a.data[[0, 0, 2]])
        out.sum().backward()
        np.testing.assert_array_equal(a.grad[:, 0], [2.0, 0.0, 1.0, 0.0])

    def test_out_of_range_index_raises(self):
        with pytest.raises(IndexError):
            T.take(Tensor(np.zeros(3)), 3)


class TestSoftmax:
    def test_symmetry(self):
        for tau in (0.5, 1.0, 3.0):
            out = T.softmax(Tensor([0.0, 0.0]), axis=0, temperature=tau)
            np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_hand_case(self):
        out = T.softmax(Tensor([1.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.7311, 0.2689], atol=1e-4)

    def test_sharp_temperature(self):
        out = T.softmax(Tensor([1.0, 0.999]), axis=0, temperature=1e-4)
        assert out.data[0] > 0.999

    def test_probability_vector(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(5, 7)) * 10)
        out = T.softmax(x, axis=1)
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_bad_temperature(self):
        with pytest.raises(InvalidConfig):
            T.softmax(Tensor([1.0]), temperature=0.0)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_two_losses_accumulate(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [5.0, 7.0])

    def test_shared_subgraph_two_losses(self):
        # losses sharing an intermediate node must not double-count
        x = Tensor([2.0], requires_grad=True)
        y = x * x
        (y * 1.0).sum().backward()
        (y * 1.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [8.0])

    def test_not_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(NotScalar):
            (x * x).backward()

    def test_detached(self):
        with pytest.raises(DetachedTape):
            Tensor([1.0]).backward()

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = (x * x).sum()
        assert not y.requires_grad

    def test_backward_fills_parameter_grads(self):
        a = Parameter([1.0, 2.0], "a")
        b = Parameter([3.0], "b")
        frozen = Tensor([5.0])
        ((a * a).sum() + b * 2.0 + frozen).sum().backward()
        assert frozen.grad is None
        np.testing.assert_array_equal(a.grad, [2.0, 4.0])
        np.testing.assert_array_equal(b.grad, [2.0])

    @staticmethod
    def graph_nodes(loss):
        seen, stack = {id(loss): loss}, [loss]
        while stack:
            for p in stack.pop()._parents:
                if id(p) not in seen:
                    seen[id(p)] = p
                    stack.append(p)
        return list(seen.values())

    @staticmethod
    def every_node_sweep(loss):
        """Gradient of ``loss`` at every graph node, interior ones included,
        by the sweep that once stored them all: same visiting order, same
        order of summed contributions."""
        topo, visited, stack = [], set(), [(loss, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and id(p) not in visited)
        grads = {id(loss): np.ones_like(loss.data)}
        for node in reversed(topo):
            g = grads.get(id(node))
            if g is None or node._backward is None:
                continue
            for p, pg in zip(node._parents, node._backward(g)):
                if pg is not None and p.requires_grad:
                    grads[id(p)] = pg if id(p) not in grads else grads[id(p)] + pg
        return grads

    @pytest.mark.parametrize("seed", range(3))
    def test_only_leaves_keep_a_grad(self, seed):
        f, params = every_op_objective(seed)
        loss = f()
        nodes = self.graph_nodes(loss)
        reference = self.every_node_sweep(f())
        loss.backward()
        interior = [n for n in nodes if n._backward is not None]
        assert len(interior) > 50
        assert all(n.grad is None for n in interior)
        leaves = {id(n) for n in nodes if n._backward is None and n.grad is not None}
        assert leaves == {id(p) for p in params}
        for p in params:
            assert p.grad.tobytes() == reference[id(p)].tobytes(), p.name


def every_op_objective(seed):
    """The per-op sweep's objective and its parameters."""
    rng = np.random.default_rng(seed)
    x = Parameter(rng.normal(size=(2, 4, 4, 4)) + 0.2, "x")
    k3 = Parameter(rng.normal(size=(4, 4, 3, 3)) * 0.3, "k3")
    k1 = Parameter(rng.normal(size=(4, 4, 1, 1)) * 0.3, "k1")
    v = Parameter(rng.normal(size=(3,)), "v")
    w = Parameter(rng.normal(size=(2, 3)), "w")

    def f():
        y = T.conv2d(x, k3, stride=1, padding=1)
        y = T.relu(y)
        y = T.conv2d(y, k1, stride=1, padding=0)
        y = T.maxpool2x2(y)
        y = T.bilinear_up2x(y)
        a, b = split(y)
        y = T.concat_channels(a * 0.5, b + 1.0)
        m, var = moments(y, axes=(0, 2, 3))
        y = (y - m) * T.power(var + 1e-3, -0.5)
        s = T.softmax(y.reshape((2, 64)), axis=1, temperature=2.0)
        ls = T.log_softmax(y.reshape((2, 64)), axis=1)
        p = T.take(ls, (np.arange(2), [1, 3]))
        r = T.take(v, [2, 2, 0])  # a repeated entry: its gradients must sum
        vm = T.matmul(w, T.softmax(v, axis=0).reshape((3, 1)))
        wt = T.transpose2d(w)
        ac = T.arccos(T.clip(T.take(v, 0), -0.9, 0.9))
        total = (s * s).sum() + p.sum() * 0.1 + vm.sum() + ac * 0.05
        total = total + (r * r).sum() * 0.1 + T.matmul(wt, w).sum() * 0.1
        return total + T.take(v, 1) * 0.1 + (T.take(v, 2) * T.take(v, 2) + 1.0)

    return f, [x, k3, k1, v, w]


class TestGradientChecks:
    def test_quadratic_near_exact(self):
        rng = np.random.default_rng(0)
        p = Parameter(rng.normal(size=(5,)), "p")
        report = T.finite_difference_check(lambda: (p * p).sum(), [p], step=1e-5, tol=1e-9)
        assert report.passed and report.max_rel_error < 1e-9

    def test_corrupted_backward_fails(self):
        rng = np.random.default_rng(1)
        p = Parameter(rng.normal(size=(4,)), "p")

        def corrupted_mul(a, b):
            # the forward of ``mul`` with a backward rule mis-scaled by 0.1%
            return T._from_op(a.data * b.data, (a, b),
                              lambda g: (g * b.data * 1.001, g * a.data * 1.001))

        report = T.finite_difference_check(lambda: corrupted_mul(p, p).sum(), [p],
                                           step=1e-5, tol=1e-4)
        assert not report.passed

    def test_nondeterministic_detected(self):
        rng = np.random.default_rng(9)
        p = Parameter([1.0], "p")

        def f():
            return (p * float(rng.normal())).sum()

        with pytest.raises(NondeterministicFunction):
            T.finite_difference_check(f, [p])

    def test_step_bounds(self):
        p = Parameter([1.0], "p")
        with pytest.raises(InvalidConfig):
            T.finite_difference_check(lambda: (p * p).sum(), [p], step=1e-3)

    @pytest.mark.parametrize("seed", range(20))
    def test_every_op_gradient(self, seed):
        """Composite graph touching every differentiable op, 20 seeds."""
        f, params = every_op_objective(seed)
        report = T.finite_difference_check(f, params, step=1e-6, tol=1e-4)
        assert report.passed, report

    @staticmethod
    def backward_rules():
        """The ``streamcl.tensor`` functions that record a backward rule."""
        return {name for name, fn in vars(T).items() if inspect.isfunction(fn)
                and "_from_op" in inspect.getclosurevars(fn).globals}

    @staticmethod
    def record_ops(monkeypatch):
        """Patch ``_from_op``. Returns two sets that fill as code runs: the ops
        that built a node, and the ops whose backward rule a sweep ran."""
        called, ran, from_op = set(), set(), T._from_op

        def recording_from_op(data, parents, backward):
            op = sys._getframe(1).f_code.co_name
            called.add(op)

            def recorded(g):
                ran.add(op)
                return backward(g)
            return from_op(data, parents, recorded)

        monkeypatch.setattr(T, "_from_op", recording_from_op)
        return called, ran

    def test_sweep_runs_every_backward_rule(self, monkeypatch):
        """Every op that records a backward rule has that rule run by the sweep."""
        rules = self.backward_rules()
        _, ran = self.record_ops(monkeypatch)
        f, _ = every_op_objective(0)
        f().backward()
        assert "take" in rules and "conv2d" in rules
        assert ran == rules

    def test_runs_reach_every_op(self, monkeypatch):
        """The core holds only what runs: the check suite and one small
        default-config run between them call every op that records a rule."""
        called, _ = self.record_ops(monkeypatch)
        assert all(passed for _, passed, _ in checks.run_all())
        run_experiment(parse_config_text(
            "[stream]\ntasks = 2\nsamples_per_task = 30\ntest_samples = 20\n"), seed=0)
        assert called == self.backward_rules()


class TestProperties:
    @given(st.data())
    def test_unbroadcast_is_the_adjoint_of_broadcasting(self, data):
        g_shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
        k = data.draw(st.integers(0, len(g_shape)))
        shape = tuple(n if data.draw(st.booleans()) else 1 for n in g_shape[len(g_shape) - k:])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g, v = rng.normal(size=g_shape), rng.normal(size=shape)
        out = T._unbroadcast(g, shape)
        assert out.shape == shape
        # <unbroadcast(g), v> == <g, broadcast(v)> for every v
        assert np.sum(out * v) == pytest.approx(np.sum(g * np.broadcast_to(v, g_shape)), abs=1e-9)

    @staticmethod
    def resample_and_einsum(x, mw, mh, g_seed):
        g = np.random.default_rng(g_seed).normal(size=x.shape[:2] + (len(mw), len(mh)))
        return ((T.resample(x, mw, mh), np.einsum("pw,bcwh,qh->bcpq", mw, x, mh, optimize=True)),
                (T.resample(g, mw.T, mh.T), np.einsum("pw,bcpq,qh->bcwh", mw, g, mh, optimize=True)))

    @given(b=st.integers(1, 100), c=st.integers(1, 16), w=st.sampled_from((1, 2, 4, 8)),
           seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=50)
    def test_resample_is_the_einsum_on_up2x_maps(self, b, c, w, seed):
        # the encoder's upsampling shapes: both directions bitwise equal
        m = T.resample_matrix(w, 2 * w)
        x = np.random.default_rng(seed).normal(size=(b, c, w, w))
        for out, ref in self.resample_and_einsum(x, m, m, seed + 1):
            assert np.array_equal(out, ref)

    @given(b=st.integers(1, 4), c=st.integers(1, 4), w=st.integers(1, 12), h=st.integers(1, 12),
           p=st.integers(1, 24), q=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_resample_matches_einsum(self, b, c, w, h, p, q, seed):
        # einsum's path may contract H first or lay its operands out otherwise,
        # so on arbitrary maps only the rounding of the sums may differ
        rng = np.random.default_rng(seed)
        x, mw, mh = rng.normal(size=(b, c, w, h)), rng.normal(size=(p, w)), rng.normal(size=(q, h))
        for out, ref in self.resample_and_einsum(x, mw, mh, seed + 1):
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
