"""Normalization layers: BN, IN, LN, GN, SN, CN and the split-parallel module.

Every layer maps a (B,C,W,H) tensor to the same shape. Layers that use
minibatch statistics (BN, the BN parts of SN/CN and of the split-parallel
module) keep running estimates updated only in train mode; the spatial
layers (IN, LN, GN) are stateless and behave identically in both modes.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    InvalidConfig,
    OddChannelCount,
    Parameter,
    ShapeMismatch,
    Tensor,
    concat_channels,
    element,
    moments,
    power,
    reshape,
    softmax,
    split_halves,
)

NORM_KINDS = ("bn", "in", "ln", "gn", "sn", "cn", "spn")


class AffineParams:
    """Per-channel scale and shift, initialized to the identity transform."""

    def __init__(self, channels, prefix):
        self.gamma = Parameter(np.ones((1, channels, 1, 1)), f"{prefix}.gamma")
        self.beta = Parameter(np.zeros((1, channels, 1, 1)), f"{prefix}.beta")

    def apply(self, xhat):
        return self.gamma * xhat + self.beta

    def params(self):
        return [self.gamma, self.beta]


class RunningStats:
    """Per-channel running mean/variance with momentum-weighted updates."""

    def __init__(self, channels, momentum=0.1, epsilon=1e-5):
        if not 0.0 < momentum < 1.0:
            raise InvalidConfig(f"momentum must be in (0,1), got {momentum}")
        if epsilon <= 0.0:
            raise InvalidConfig("epsilon must be positive")
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)
        self.momentum = momentum
        self.epsilon = epsilon

    def update(self, batch_mean, batch_var):
        m = self.momentum
        self.mean = (1.0 - m) * self.mean + m * batch_mean
        self.var = (1.0 - m) * self.var + m * batch_var

    def batch_stats(self, x, training):
        """Per-channel moments of ``x``: batch moments plus a running update
        in train mode, the running estimates in eval mode."""
        if not training:
            return (Tensor(self.mean.reshape(1, -1, 1, 1)),
                    Tensor(self.var.reshape(1, -1, 1, 1)))
        mean, var = moments(x, (0, 2, 3))
        self.update(mean.data.reshape(-1), var.data.reshape(-1))
        return mean, var

    def buffers(self, prefix):
        return {f"{prefix}.running_mean": self.mean, f"{prefix}.running_var": self.var}


class BlendWeights:
    """Trainable logits whose softmax blends normalization statistics."""

    def __init__(self, n, prefix):
        self.logits_mean = Parameter(np.zeros(n), f"{prefix}.logits_mean")
        self.logits_var = Parameter(np.zeros(n), f"{prefix}.logits_var")

    def mean_weights(self):
        return softmax(self.logits_mean, axis=0)

    def var_weights(self):
        return softmax(self.logits_var, axis=0)

    def params(self):
        return [self.logits_mean, self.logits_var]


def _check_input(x, channels):
    if not isinstance(x, Tensor) or x.ndim != 4:
        raise ShapeMismatch("norm layers expect a 4-axis tensor")
    if x.shape[1] != channels:
        raise ShapeMismatch(f"expected {channels} channels, got {x.shape[1]}")


class NormLayer:
    """Common mode/state plumbing for all normalization layers."""

    kind = "?"

    def __init__(self, channels, epsilon):
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


class BatchNorm(NormLayer):
    kind = "bn"

    def __init__(self, channels, momentum=0.1, epsilon=1e-5, affine=True, prefix="bn"):
        super().__init__(channels, epsilon)
        self.prefix = prefix
        self.affine = AffineParams(channels, prefix) if affine else None
        self.stats = RunningStats(channels, momentum, epsilon)

    def __call__(self, x):
        _check_input(x, self.channels)
        mean, var = self.stats.batch_stats(x, self.training)
        xhat = (x - mean) * power(var + self.epsilon, -0.5)
        return self.affine.apply(xhat) if self.affine else xhat

    def params(self):
        return self.affine.params() if self.affine else []

    def buffers(self):
        return self.stats.buffers(self.prefix)


class InstanceNorm(NormLayer):
    kind = "in"

    def __init__(self, channels, epsilon=1e-5, affine=True, prefix="in"):
        super().__init__(channels, epsilon)
        self.affine = AffineParams(channels, prefix) if affine else None

    def __call__(self, x):
        _check_input(x, self.channels)
        mean, var = moments(x, (2, 3))
        xhat = (x - mean) * power(var + self.epsilon, -0.5)
        return self.affine.apply(xhat) if self.affine else xhat

    def params(self):
        return self.affine.params() if self.affine else []


class LayerNorm(NormLayer):
    kind = "ln"

    def __init__(self, channels, epsilon=1e-5, affine=True, prefix="ln"):
        super().__init__(channels, epsilon)
        self.affine = AffineParams(channels, prefix) if affine else None

    def __call__(self, x):
        _check_input(x, self.channels)
        mean, var = moments(x, (1, 2, 3))
        xhat = (x - mean) * power(var + self.epsilon, -0.5)
        return self.affine.apply(xhat) if self.affine else xhat

    def params(self):
        return self.affine.params() if self.affine else []


class GroupNorm(NormLayer):
    kind = "gn"

    def __init__(self, channels, groups, epsilon=1e-5, affine=True, prefix="gn"):
        super().__init__(channels, epsilon)
        if groups < 1 or channels % groups:
            raise InvalidConfig(f"groups {groups} must divide channels {channels}")
        self.groups = groups
        self.affine = AffineParams(channels, prefix) if affine else None

    def __call__(self, x):
        _check_input(x, self.channels)
        b, c, w, h = x.shape
        g = self.groups
        xr = reshape(x, (b * g, c // g, w, h))
        mean, var = moments(xr, (1, 2, 3))
        xhat = reshape((xr - mean) * power(var + self.epsilon, -0.5), (b, c, w, h))
        return self.affine.apply(xhat) if self.affine else xhat

    def params(self):
        return self.affine.params() if self.affine else []


class BlendedSpatialNorm(NormLayer):
    """Learned IN/LN mixture: softmax weights blend the means and, with a
    second weight pair, the variances before a shared affine transform."""

    kind = "inln"

    def __init__(self, channels, epsilon=1e-5, prefix="inln"):
        super().__init__(channels, epsilon)
        self.blend = BlendWeights(2, prefix)
        self.affine = AffineParams(channels, prefix)

    def __call__(self, x):
        _check_input(x, self.channels)
        mean_in, var_in = moments(x, (2, 3))
        mean_ln, var_ln = moments(x, (1, 2, 3))
        w = self.blend.mean_weights()
        wv = self.blend.var_weights()
        mean = element(w, 0) * mean_in + element(w, 1) * mean_ln
        var = element(wv, 0) * var_in + element(wv, 1) * var_ln
        xhat = (x - mean) * power(var + self.epsilon, -0.5)
        return self.affine.apply(xhat)

    def params(self):
        return self.blend.params() + self.affine.params()


class SwitchableNorm(NormLayer):
    """Three-way blend of BN/IN/LN statistics with learned weights.

    The BN component follows the usual running-statistic contract: batch
    moments in train mode (with a running update), running estimates in
    eval mode.
    """

    kind = "sn"

    def __init__(self, channels, momentum=0.1, epsilon=1e-5, prefix="sn"):
        super().__init__(channels, epsilon)
        self.prefix = prefix
        self.blend = BlendWeights(3, prefix)
        self.affine = AffineParams(channels, prefix)
        self.stats = RunningStats(channels, momentum, epsilon)

    def __call__(self, x):
        _check_input(x, self.channels)
        mean_bn, var_bn = self.stats.batch_stats(x, self.training)
        mean_in, var_in = moments(x, (2, 3))
        mean_ln, var_ln = moments(x, (1, 2, 3))
        w = self.blend.mean_weights()
        wv = self.blend.var_weights()
        mean = element(w, 0) * mean_bn + element(w, 1) * mean_in + element(w, 2) * mean_ln
        var = element(wv, 0) * var_bn + element(wv, 1) * var_in + element(wv, 2) * var_ln
        xhat = (x - mean) * power(var + self.epsilon, -0.5)
        return self.affine.apply(xhat)

    def params(self):
        return self.blend.params() + self.affine.params()

    def buffers(self):
        return self.stats.buffers(self.prefix)


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
        a1, a2 = split_halves(x)
        return concat_channels(self.bn(a1), self.inln(a2))


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
