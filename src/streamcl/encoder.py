"""Fixed random multi-scale encoder and feature-pyramid aggregation.

The encoder is a stand-in for a pretrained backbone: four stride-2
convolution stages with frozen random kernels produce a pyramid, a plain
list of four feature maps at halving resolutions. Mixing uses frozen random
projections: a per-level 1x1 convolution (cross-channel mixing) and 3x3
convolutions that match channel counts across scales (cross-scale mixing),
merged by elementwise addition. Kernels are never trained, but the whole
pipeline stays differentiable with respect to its input.

Pyramids can also be saved to and served from a flat binary container so
externally computed features can be injected without code changes.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .tensor import (
    InvalidConfig,
    ShapeMismatch,
    Tensor,
    bilinear_up2x,
    conv2d,
    maxpool2x2,
    relu,
)

AGGREGATE_MODES = ("standard", "bottom_up", "top_down")

_MAGIC = b"MFPY"
_VERSION = 1


class MixerWeights:
    """Frozen random projections for cross-channel and cross-scale mixing."""

    def __init__(self, ccm_kernels, top_down_kernels, bottom_up_kernels, output_kernel=None):
        self.ccm = [Tensor(k) for k in ccm_kernels]
        self.top_down = [Tensor(k) for k in top_down_kernels]
        self.bottom_up = [Tensor(k) for k in bottom_up_kernels]
        self.output = Tensor(output_kernel) if output_kernel is not None else None

    def all_kernels(self):
        out = self.ccm + self.top_down + self.bottom_up
        if self.output is not None:
            out = out + [self.output]
        return out


def _he_kernel(rng, cout, cin, k):
    return rng.normal(scale=np.sqrt(2.0 / (cin * k * k)), size=(cout, cin, k, k))


class MultiScaleEncoder:
    def __init__(self, stages, mixer, input_channels, stage_channels):
        self.stages = stages  # frozen kernel Tensors, one per level
        self.mixer = mixer
        self.input_channels = input_channels
        self.stage_channels = tuple(stage_channels)

    @classmethod
    def from_seed(cls, seed, input_channels, stage_channels, aggregate_channels=0):
        """Draw all frozen kernels for one experiment seed.

        ``aggregate_channels`` adds one extra 3x3 projection applied after
        top-down aggregation when it differs from the first level's channel
        count (0 means "use channels(L1)").
        """
        stage_channels = tuple(int(c) for c in stage_channels)
        if len(stage_channels) != 4:
            raise InvalidConfig(f"expected 4 stage channel counts, got {len(stage_channels)}")
        if any(b < a for a, b in zip(stage_channels, stage_channels[1:])):
            raise InvalidConfig("stage channels must be non-decreasing")
        rng = np.random.default_rng(seed)
        cs = (input_channels,) + stage_channels
        stages = [Tensor(_he_kernel(rng, cs[i + 1], cs[i], 3)) for i in range(4)]
        ccm = [_he_kernel(rng, c, c, 1) for c in stage_channels]
        td = [_he_kernel(rng, stage_channels[i], stage_channels[i + 1], 3) for i in range(3)]
        bu = [_he_kernel(rng, stage_channels[i + 1], stage_channels[i], 3) for i in range(3)]
        out_k = None
        if aggregate_channels and aggregate_channels != stage_channels[0]:
            out_k = _he_kernel(rng, aggregate_channels, stage_channels[0], 3)
        return cls(stages, MixerWeights(ccm, td, bu, out_k), input_channels, stage_channels)

    def extract(self, x, indices=None):
        """Run the frozen stages; gradients flow through, never into, them."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim != 4 or x.shape[1] != self.input_channels:
            raise ShapeMismatch(
                f"expected (B,{self.input_channels},W,H) input, got {x.shape}")
        if x.shape[2] % 16 or x.shape[3] % 16:
            raise InvalidConfig(f"input dims must be divisible by 16, got {x.shape[2:]}")
        levels = []
        for kernel in self.stages:
            x = relu(conv2d(x, kernel, stride=2, padding=1))
            levels.append(x)
        return levels

    def kernel_bytes(self):
        """Byte string over every frozen kernel, for frozenness checks."""
        return b"".join(k.data.tobytes() for k in self.stages + self.mixer.all_kernels())

    def features(self, x, mode, indices=None):
        return aggregate(self.extract(x, indices), mode, self.mixer)


def mix_ccm(pyramid, mixer):
    """Per-level frozen 1x1 mixing; shapes are unchanged."""
    return [conv2d(lvl, k, stride=1, padding=0) for lvl, k in zip(pyramid, mixer.ccm)]


def aggregate(pyramid, mode, mixer):
    """Collapse a pyramid into one feature map.

    top_down: walk from the deepest level, upsample, project with a frozen
    3x3 convolution to the shallower channel count and add; the result has
    the first level's resolution and channels and feeds the full
    classifier. bottom_up mirrors it with max-pooling, ending at the
    deepest level's resolution. standard uses only the deepest level. The
    standard and bottom_up outputs feed a classification head directly.
    """
    if mode not in AGGREGATE_MODES:
        raise InvalidConfig(f"unknown aggregate mode {mode!r}")
    n = len(pyramid)
    if mode == "standard":  # only the deepest level is used, so only its ccm conv runs
        return conv2d(pyramid[n - 1], mixer.ccm[n - 1], stride=1, padding=0)
    mixed = mix_ccm(pyramid, mixer)
    if mode == "top_down":
        acc = mixed[n - 1]
        for k in range(n - 2, -1, -1):
            proj = conv2d(bilinear_up2x(acc), mixer.top_down[k], stride=1, padding=1)
            acc = mixed[k] + proj
        if mixer.output is not None:
            acc = conv2d(acc, mixer.output, stride=1, padding=1)
        return acc
    acc = mixed[0]
    for k in range(1, n):
        proj = conv2d(maxpool2x2(acc), mixer.bottom_up[k - 1], stride=1, padding=1)
        acc = mixed[k] + proj
    return acc


# pyramid-injection container ------------------------------------------------

def save_pyramid_file(path, levels):
    """Write levels to the flat binary container.

    Layout: 16-byte header (magic ``MFPY``, u32 version, u32 level count,
    u32 reserved), then per level four u32 dims (B,C,W,H) followed by
    row-major little-endian float64 values.
    """
    arrays = [np.ascontiguousarray(np.asarray(l, dtype=np.float64)) for l in levels]
    for a in arrays:
        if a.ndim != 4:
            raise InvalidConfig("pyramid levels must be 4-axis arrays")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, len(arrays), 0))
        for a in arrays:
            fh.write(struct.pack("<IIII", *a.shape))
            fh.write(a.astype("<f8").tobytes())


def load_pyramid_file(path):
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if len(head) != 16 or head[:4] != _MAGIC:
            raise InvalidConfig(f"{path}: not a pyramid container")
        version, count, _ = struct.unpack("<III", head[4:])
        if version != _VERSION:
            raise InvalidConfig(f"{path}: unsupported container version {version}")
        levels = []
        for _ in range(count):
            dims_raw = fh.read(16)
            if len(dims_raw) != 16:
                raise InvalidConfig(f"{path}: truncated level header")
            dims = struct.unpack("<IIII", dims_raw)
            nbytes = 8 * math.prod(dims)  # Python ints: np.prod of four u32s wraps in int64
            left = size - fh.tell()
            if nbytes > left:
                raise InvalidConfig(f"{path}: level {len(levels) + 1} of shape {dims} needs "
                                    f"{nbytes} bytes, the file holds {left} more")
            level = np.frombuffer(fh.read(nbytes), dtype="<f8").reshape(dims).copy()
            if not np.isfinite(level).all():
                raise InvalidConfig(f"{path}: level {len(levels) + 1} holds non-finite values")
            levels.append(level)
    return levels


class StoredPyramidEncoder(MultiScaleEncoder):
    """Serves precomputed pyramid levels by global sample index.

    A drop-in for :class:`MultiScaleEncoder` when features were computed
    elsewhere: it has no stages, only the mixer, and the container's batch
    axis must cover every sample index the stream will request.
    """

    def __init__(self, levels, mixer, input_channels, stage_channels):
        super().__init__([], mixer, input_channels, stage_channels)
        self.levels = levels
        counts = {l.shape[0] for l in levels}
        if len(counts) != 1:
            raise InvalidConfig("stored levels disagree on sample count")
        self.sample_count = counts.pop()

    @classmethod
    def from_file(cls, path, mixer, input_channels, stage_channels, dims):
        """Load ``path``; it must hold one level per stage channel count, with
        those channels, and level ``i``'s spatial dims must be ``dims / 2**i``,
        as the stride-2 stages give."""
        levels = load_pyramid_file(path)
        if len(levels) > len(stage_channels):
            raise InvalidConfig(f"{path}: {len(levels)} levels but only "
                                f"{len(stage_channels)} stage channel counts")
        for i, level in enumerate(levels):
            if level.shape[1] != stage_channels[i]:
                raise InvalidConfig(f"{path}: level {i + 1} has {level.shape[1]} channels, "
                                    f"stage_channels gives {stage_channels[i]}")
            side = dims >> (i + 1)
            if level.shape[2:] != (side, side):
                raise InvalidConfig(f"{path}: level {i + 1} is {level.shape[2:]}, "
                                    f"stream.dims = {dims} gives {(side, side)}")
        if len(levels) < len(stage_channels):
            raise InvalidConfig(f"{path}: {len(levels)} levels, but "
                                f"{len(stage_channels)} stage channel counts")
        return cls(levels, mixer, input_channels, stage_channels)

    def extract(self, x, indices=None):
        if indices is None:
            raise InvalidConfig("stored-pyramid mode needs sample indices")
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.sample_count):
            raise InvalidConfig("sample index outside the stored pyramid range")
        return [Tensor(l[idx]) for l in self.levels]
