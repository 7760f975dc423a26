"""Normalization layers: BN, IN, LN, GN, SN, CN and the split-parallel module.

BN, IN, LN, GN, SN and the IN/LN blend are one layer, ``MomentNorm``, that
standardizes by the moments of the sources each kind declares; CN and the
split-parallel module compose those layers. Each ``MomentNorm`` call is one
autodiff node. Its forward computes what the unrolled chain of tensor ops
(moments, blend, standardize, affine) computes, bit for bit; its backward is
the closed-form rule, equal to that chain's gradients up to roundoff.

Every layer maps a (B,C,W,H) tensor to the same shape. Layers that use
minibatch statistics (BN, the BN parts of SN/CN and of the split-parallel
module) keep running estimates updated only in train mode; the spatial
layers (IN, LN, GN) are stateless and behave identically in both modes.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from .tensor import (
    InvalidConfig,
    OddChannelCount,
    Parameter,
    ShapeMismatch,
    Tensor,
    _from_op,
    _unbroadcast,
    concat_channels,
    softmax,
    take,
)

NORM_KINDS = ("bn", "in", "ln", "gn", "sn", "cn", "spn")


class RunningStats:
    """Per-channel running mean/variance with momentum-weighted updates."""

    def __init__(self, channels, momentum=0.1):
        if not 0.0 < momentum < 1.0:
            raise InvalidConfig(f"momentum must be in (0,1), got {momentum}")
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)
        self.momentum = momentum

    def update(self, batch_mean, batch_var):
        m = self.momentum
        self.mean = (1.0 - m) * self.mean + m * batch_mean
        self.var = (1.0 - m) * self.var + m * batch_var

    def buffers(self, prefix):
        return {f"{prefix}.running_mean": self.mean, f"{prefix}.running_var": self.var}


def _check_input(x, channels):
    if not isinstance(x, Tensor) or x.ndim != 4:
        raise ShapeMismatch("norm layers expect a 4-axis tensor")
    if x.shape[1] != channels:
        raise ShapeMismatch(f"expected {channels} channels, got {x.shape[1]}")


class NormLayer:
    """Common mode/state plumbing for all normalization layers."""

    kind = "?"

    def __init__(self, channels, epsilon):
        if not epsilon > 0.0:
            raise InvalidConfig(f"epsilon must be positive, got {epsilon}")
        self.channels = channels
        self.epsilon = epsilon
        self.training = True

    def children(self):
        return []

    def train(self):
        self.training = True
        for c in self.children():
            c.train()
        return self

    def eval(self):
        self.training = False
        for c in self.children():
            c.eval()
        return self

    def params(self):
        out = []
        for c in self.children():
            out.extend(c.params())
        return out

    def buffers(self):
        out = {}
        for c in self.children():
            out.update(c.buffers())
        return out


class MomentNorm(NormLayer):
    """Standardize by the moments of ``sources``, then an optional affine.

    A source is ``"batch"`` (per-channel moments over (0,2,3) with a running
    update in train mode, the running estimates as constants in eval mode) or
    a tuple of axes reduced in both modes. Moments are taken on the input
    viewed as (B*groups, C/groups, W, H). Two or more sources are blended by
    the learned softmax of ``logits_mean`` (means) and of ``logits_var``
    (variances); ``affine`` adds a per-channel ``gamma`` and ``beta``. Unused
    ones are ``None``.
    """

    sources = ()
    groups = 1

    def __init__(self, channels, epsilon, affine, prefix, momentum=0.1):
        super().__init__(channels, epsilon)
        self.prefix = prefix
        self.gamma = self.beta = self.logits_mean = self.logits_var = None
        if affine:
            self.gamma = Parameter(np.ones((1, channels, 1, 1)), f"{prefix}.gamma")
            self.beta = Parameter(np.zeros((1, channels, 1, 1)), f"{prefix}.beta")
        self.stats = RunningStats(channels, momentum) if "batch" in self.sources else None
        if len(self.sources) > 1:
            self.logits_mean = Parameter(np.zeros(len(self.sources)), f"{prefix}.logits_mean")
            self.logits_var = Parameter(np.zeros(len(self.sources)), f"{prefix}.logits_var")

    def _moments(self, xs, source):
        """(mean, var, centered input, 1/n) of one source; the last two are
        ``None`` for the running estimates, which are constants."""
        if source == "batch" and not self.training:
            run = self.stats
            return run.mean.reshape(1, -1, 1, 1), run.var.reshape(1, -1, 1, 1), None, None
        axes = (0, 2, 3) if source == "batch" else source
        c = np.array(1.0 / np.prod([xs.shape[a] for a in axes]))
        mean = xs.sum(axes, keepdims=True) * c
        d = xs - mean
        var = (d * d).sum(axes, keepdims=True) * c
        if source == "batch":
            self.stats.update(mean.reshape(-1), var.reshape(-1))
        return mean, var, d, c

    def __call__(self, x):
        _check_input(x, self.channels)
        b, ch, w, h = x.shape
        xs = x.data.reshape(b * self.groups, ch // self.groups, w, h)
        stats = [self._moments(xs, s) for s in self.sources]
        weights = ()
        mean, var = stats[0][:2]
        if self.logits_mean is not None:
            weights = (softmax(self.logits_mean, axis=0), softmax(self.logits_var, axis=0))
            mean, var = (reduce(operator.add, (wt.data[i] * st[k] for i, st in enumerate(stats)))
                         for k, wt in enumerate(weights))
        ve = var + self.epsilon
        r = ve ** -0.5
        xm = xs - mean
        xhat = (xm * r).reshape(x.shape)
        affine = () if self.gamma is None else (self.gamma, self.beta)
        out = xhat if not affine else self.gamma.data * xhat + self.beta.data

        def backward(g):
            # the direct term, then the gradient through the blended mean and
            # variance into each source's moments, by that source's weights
            grads = []
            if affine:
                grads = [_unbroadcast(g * xhat, self.gamma.shape), _unbroadcast(g, self.beta.shape)]
                g = g * self.gamma.data
            g = g.reshape(xs.shape)
            gx = g * r
            g_mean = -_unbroadcast(gx, mean.shape)
            g_var = _unbroadcast(g * xm, var.shape) * (-0.5 * r ** 3)
            blend = [wt.data for wt in weights] or [np.ones(1)] * 2
            for i, (m, v, d, c) in enumerate(stats):
                if d is not None:
                    gx += c * blend[0][i] * _unbroadcast(g_mean, m.shape)
                    gx += 2 * c * blend[1][i] * _unbroadcast(g_var, v.shape) * d
            g_blend = [np.array([np.sum(gs * st[k]) for st in stats])
                       for k, gs in enumerate((g_mean, g_var)[:len(weights)])]
            return (gx.reshape(x.shape), *g_blend, *grads)

        return _from_op(out, (x, *weights, *affine), backward)

    def params(self):
        return [p for p in (self.logits_mean, self.logits_var, self.gamma, self.beta)
                if p is not None]

    def buffers(self):
        return self.stats.buffers(self.prefix) if self.stats else {}


class BatchNorm(MomentNorm):
    kind = "bn"
    sources = ("batch",)

    def __init__(self, channels, momentum=0.1, epsilon=1e-5, affine=True, prefix="bn"):
        super().__init__(channels, epsilon, affine, prefix, momentum)


class InstanceNorm(MomentNorm):
    kind = "in"
    sources = ((2, 3),)

    def __init__(self, channels, epsilon=1e-5, affine=True, prefix="in"):
        super().__init__(channels, epsilon, affine, prefix)


class LayerNorm(MomentNorm):
    kind = "ln"
    sources = ((1, 2, 3),)

    def __init__(self, channels, epsilon=1e-5, affine=True, prefix="ln"):
        super().__init__(channels, epsilon, affine, prefix)


class GroupNorm(MomentNorm):
    """Layer-norm moments over each group of ``channels // groups`` channels."""

    kind = "gn"
    sources = ((1, 2, 3),)

    def __init__(self, channels, groups, epsilon=1e-5, affine=True, prefix="gn"):
        if groups < 1 or channels % groups:
            raise InvalidConfig(f"groups {groups} must divide channels {channels}")
        super().__init__(channels, epsilon, affine, prefix)
        self.groups = groups


class BlendedSpatialNorm(MomentNorm):
    """Learned IN/LN mixture: softmax weights blend the means and, with a
    second weight pair, the variances before a shared affine transform."""

    kind = "inln"
    sources = ((2, 3), (1, 2, 3))

    def __init__(self, channels, epsilon=1e-5, prefix="inln"):
        super().__init__(channels, epsilon, True, prefix)


class SwitchableNorm(MomentNorm):
    """Three-way blend of BN/IN/LN statistics with learned weights.

    The BN component follows the usual running-statistic contract: batch
    moments in train mode (with a running update), running estimates in
    eval mode.
    """

    kind = "sn"
    sources = ("batch", (2, 3), (1, 2, 3))

    def __init__(self, channels, momentum=0.1, epsilon=1e-5, prefix="sn"):
        super().__init__(channels, epsilon, True, prefix, momentum)


class ContinualNorm(NormLayer):
    """Group normalization without affine, then batch normalization with it.

    The BN running statistics are tracked on the group-normalized
    activations, the only order consistent with the sequential composition.
    """

    kind = "cn"

    def __init__(self, channels, groups, momentum=0.1, epsilon=1e-5, prefix="cn"):
        super().__init__(channels, epsilon)
        self.gn = GroupNorm(channels, groups, epsilon, affine=False, prefix=f"{prefix}.gn")
        self.bn = BatchNorm(channels, momentum, epsilon, affine=True, prefix=f"{prefix}.bn")

    def children(self):
        return [self.gn, self.bn]

    def __call__(self, x):
        return self.bn(self.gn(x))


class SplitParallelNorm(NormLayer):
    """Channel-halved parallel normalization (config kind ``spn``).

    The first half goes through BN, the second through the learned IN/LN
    blend; the halves keep independent affine parameters and the BN half
    its own running statistics.
    """

    kind = "spn"

    def __init__(self, channels, momentum=0.1, epsilon=1e-5, prefix="spn"):
        super().__init__(channels, epsilon)
        if channels % 2:
            raise OddChannelCount(f"split-parallel norm needs an even channel count, got {channels}")
        half = channels // 2
        self.bn = BatchNorm(half, momentum, epsilon, affine=True, prefix=f"{prefix}.bn")
        self.inln = BlendedSpatialNorm(half, epsilon, prefix=f"{prefix}.inln")

    def children(self):
        return [self.bn, self.inln]

    def __call__(self, x):
        _check_input(x, self.channels)
        h = self.channels // 2
        return concat_channels(self.bn(take(x, np.s_[:, :h])), self.inln(take(x, np.s_[:, h:])))


def make_norm(kind, channels, groups=2, momentum=0.1, epsilon=1e-5, prefix="norm"):
    if kind == "bn":
        return BatchNorm(channels, momentum, epsilon, prefix=prefix)
    if kind == "in":
        return InstanceNorm(channels, epsilon, prefix=prefix)
    if kind == "ln":
        return LayerNorm(channels, epsilon, prefix=prefix)
    if kind == "gn":
        return GroupNorm(channels, groups, epsilon, prefix=prefix)
    if kind == "sn":
        return SwitchableNorm(channels, momentum, epsilon, prefix=prefix)
    if kind == "cn":
        return ContinualNorm(channels, groups, momentum, epsilon, prefix=prefix)
    if kind == "spn":
        return SplitParallelNorm(channels, momentum, epsilon, prefix=prefix)
    raise InvalidConfig(f"unknown norm kind {kind!r}")
