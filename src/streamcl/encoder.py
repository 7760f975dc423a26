"""Fixed random multi-scale encoder and feature-pyramid aggregation.

The encoder is a stand-in for a pretrained backbone: four stride-2
convolution stages with frozen random kernels produce a pyramid of four
feature maps at halving resolutions. Mixing uses frozen random
projections: a per-level 1x1 convolution (cross-channel mixing) and 3x3
convolutions that match channel counts across scales (cross-scale mixing),
merged by elementwise addition. Kernels are never trained, but the whole
pipeline stays differentiable with respect to its input.

Pyramids can also be saved to and served from a flat binary container so
externally computed features can be injected without code changes.
"""

from __future__ import annotations

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


class FeaturePyramid:
    """Ordered feature maps at strictly halving spatial resolution."""

    def __init__(self, levels):
        levels = list(levels)
        if not levels:
            raise InvalidConfig("a pyramid needs at least one level")
        for a, b in zip(levels, levels[1:]):
            if b.shape[2] * 2 != a.shape[2] or b.shape[3] * 2 != a.shape[3]:
                raise ShapeMismatch(
                    f"levels must halve resolution, got {a.shape} then {b.shape}")
            if b.shape[1] < a.shape[1]:
                raise ShapeMismatch("channel counts must be non-decreasing with depth")
        self.levels = levels

    def __len__(self):
        return len(self.levels)

    def __getitem__(self, i):
        return self.levels[i]


class EncoderStage:
    """One frozen stride-2 3x3 convolution followed by relu."""

    def __init__(self, kernel):
        self.kernel = Tensor(kernel)  # requires_grad stays False: frozen

    def __call__(self, x):
        return relu(conv2d(x, self.kernel, stride=2, padding=1))


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


def init_encoder(seed, input_channels, stage_channels, aggregate_channels=0):
    """Draw all frozen kernels for one experiment seed.

    Returns the four stages and the mixer. ``aggregate_channels`` adds one
    extra 3x3 projection applied after top-down aggregation when it differs
    from the first level's channel count (0 means "use channels(L1)").
    """
    stage_channels = tuple(int(c) for c in stage_channels)
    if len(stage_channels) != 4:
        raise InvalidConfig(f"expected 4 stage channel counts, got {len(stage_channels)}")
    if any(b < a for a, b in zip(stage_channels, stage_channels[1:])):
        raise InvalidConfig("stage channels must be non-decreasing")
    rng = np.random.default_rng(seed)
    cs = (input_channels,) + stage_channels
    stages = [EncoderStage(_he_kernel(rng, cs[i + 1], cs[i], 3)) for i in range(4)]
    ccm = [_he_kernel(rng, c, c, 1) for c in stage_channels]
    td = [_he_kernel(rng, stage_channels[i], stage_channels[i + 1], 3) for i in range(3)]
    bu = [_he_kernel(rng, stage_channels[i + 1], stage_channels[i], 3) for i in range(3)]
    out_k = None
    if aggregate_channels and aggregate_channels != stage_channels[0]:
        out_k = _he_kernel(rng, aggregate_channels, stage_channels[0], 3)
    return stages, MixerWeights(ccm, td, bu, out_k)


class MultiScaleEncoder:
    def __init__(self, stages, mixer, input_channels, stage_channels):
        self.stages = stages
        self.mixer = mixer
        self.input_channels = input_channels
        self.stage_channels = tuple(stage_channels)

    @classmethod
    def from_seed(cls, seed, input_channels, stage_channels, aggregate_channels=0):
        stages, mixer = init_encoder(seed, input_channels, stage_channels, aggregate_channels)
        return cls(stages, mixer, input_channels, stage_channels)

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
        cur = x
        for stage in self.stages:
            cur = stage(cur)
            levels.append(cur)
        return FeaturePyramid(levels)

    def kernel_bytes(self):
        """Byte string over every frozen kernel, for frozenness checks."""
        parts = [s.kernel.data.tobytes() for s in self.stages]
        parts += [k.data.tobytes() for k in self.mixer.all_kernels()]
        return b"".join(parts)

    def features(self, x, mode, indices=None):
        return aggregate(self.extract(x, indices), mode, self.mixer)


def mix_ccm(pyramid, mixer):
    """Per-level frozen 1x1 mixing; shapes are unchanged."""
    if len(mixer.ccm) < len(pyramid):
        raise ShapeMismatch("mixer has fewer ccm kernels than pyramid levels")
    return FeaturePyramid([conv2d(lvl, k, stride=1, padding=0)
                           for lvl, k in zip(pyramid.levels, mixer.ccm)])


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
        if len(mixer.ccm) < n:
            raise ShapeMismatch("mixer has fewer ccm kernels than pyramid levels")
        return conv2d(pyramid[n - 1], mixer.ccm[n - 1], stride=1, padding=0)
    mixed = mix_ccm(pyramid, mixer)
    if mode == "top_down":
        if len(mixer.top_down) < n - 1:
            raise InvalidConfig("mixer lacks top-down kernels for this pyramid depth")
        acc = mixed[n - 1]
        for k in range(n - 2, -1, -1):
            proj = conv2d(bilinear_up2x(acc), mixer.top_down[k], stride=1, padding=1)
            acc = mixed[k] + proj
        if mixer.output is not None:
            acc = conv2d(acc, mixer.output, stride=1, padding=1)
        return acc
    if len(mixer.bottom_up) < n - 1:
        raise InvalidConfig("mixer lacks bottom-up kernels for this pyramid depth")
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
            n = int(np.prod(dims))
            buf = fh.read(8 * n)
            if len(buf) != 8 * n:
                raise InvalidConfig(f"{path}: truncated level data")
            levels.append(np.frombuffer(buf, dtype="<f8").reshape(dims).copy())
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
    def from_file(cls, path, mixer, input_channels, stage_channels):
        return cls(load_pyramid_file(path), mixer, input_channels, stage_channels)

    def extract(self, x, indices=None):
        if indices is None:
            raise InvalidConfig("stored-pyramid mode needs sample indices")
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.sample_count):
            raise InvalidConfig("sample index outside the stored pyramid range")
        return FeaturePyramid([Tensor(l[idx]) for l in self.levels])
