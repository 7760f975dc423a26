"""Normalization layers: BN, IN, LN, GN, SN, CN and the split-parallel module.

BN, IN, LN, GN, SN and the IN/LN blend are one layer, ``MomentNorm``, that
standardizes by the moments of the sources each kind declares; CN and the
split-parallel module compose those layers.

Every layer maps a (B,C,W,H) tensor to the same shape. Layers that use
minibatch statistics (BN, the BN parts of SN/CN and of the split-parallel
module) keep running estimates updated only in train mode; the spatial
layers (IN, LN, GN) are stateless and behave identically in both modes.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .tensor import (
    InvalidConfig,
    OddChannelCount,
    Parameter,
    ShapeMismatch,
    Tensor,
    add,
    concat_channels,
    moments,
    power,
    reshape,
    softmax,
    take,
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


def standardize(x, mean, var, epsilon):
    """``(x - mean) / sqrt(var + epsilon)``: the one standardize step of the zoo."""
    return (x - mean) * power(var + epsilon, -0.5)


class MomentNorm(NormLayer):
    """Standardize by the moments of ``sources``, then an optional affine.

    A source is ``"batch"`` (per-channel moments through
    ``RunningStats.batch_stats``: batch moments with a running update in
    train mode, running estimates in eval mode) or a tuple of axes that
    ``moments`` reduces in both modes. Two or more sources are blended by
    learned softmax weights, one set for the means and one for the variances.
    """

    sources = ()

    def __init__(self, channels, epsilon, affine, prefix, momentum=0.1):
        super().__init__(channels, epsilon)
        self.prefix = prefix
        self.affine = AffineParams(channels, prefix) if affine else None
        self.stats = RunningStats(channels, momentum, epsilon) if "batch" in self.sources else None
        self.blend = BlendWeights(len(self.sources), prefix) if len(self.sources) > 1 else None

    def __call__(self, x):
        _check_input(x, self.channels)
        xhat = self.standardized(x)
        return self.affine.apply(xhat) if self.affine else xhat

    def standardized(self, x):
        stats = [self.stats.batch_stats(x, self.training) if s == "batch" else moments(x, s)
                 for s in self.sources]
        means, variances = zip(*stats)
        mean, var = means[0], variances[0]
        if self.blend:
            mean = _blend(self.blend.mean_weights(), means)
            var = _blend(self.blend.var_weights(), variances)
        return standardize(x, mean, var, self.epsilon)

    def params(self):
        return ((self.blend.params() if self.blend else [])
                + (self.affine.params() if self.affine else []))

    def buffers(self):
        return self.stats.buffers(self.prefix) if self.stats else {}


def _blend(weights, stats):
    """``w0*s0 + w1*s1 + ...``, summed left to right."""
    return reduce(add, (take(weights, i) * s for i, s in enumerate(stats)))


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

    def standardized(self, x):
        b, c, w, h = x.shape
        xr = reshape(x, (b * self.groups, c // self.groups, w, h))
        return reshape(super().standardized(xr), (b, c, w, h))


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
