"""Experiment configuration.

Config files are flat sections of ``key = value`` lines::

    # comment
    [train]
    lr = 0.03
    seeds = 0,1,2,3,4

Unknown sections or keys, and a key set twice, are hard errors (ablation
axes address keys by path, so typos must be loud). Values are typed from
the defaults: ints, floats, booleans (``true``/``false``), strings, and
comma-separated lists.
An empty file yields the default configuration.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .encoder import AGGREGATE_MODES
from .losses import DISTILL_VARIANTS, POTENTIAL_METRICS
from .norms import NORM_KINDS
from .streams import AUGMENT_APPLY, AUGMENT_OPS, STREAM_KINDS


class ConfigError(ValueError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    def __init__(self, line_no, text):
        super().__init__(f"line {line_no}: cannot parse {text!r}")
        self.line_no = line_no


class UnknownKey(ConfigError):
    def __init__(self, path):
        super().__init__(f"unknown config key {path!r}")
        self.path = path


class InvalidValue(ConfigError):
    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


@dataclass
class StreamConfig:
    kind: str = "rotated_patterns"
    tasks: int = 5
    classes_per_task: int = 2
    samples_per_task: int = 500
    test_samples: int = 100
    dims: int = 32
    channels: int = 1
    data_dir: str = ""
    augment: str = "replay_only"
    augment_ops: tuple = ("crop_pad",)


@dataclass
class EncoderConfig:
    stage_channels: tuple = (8, 16, 32, 64)
    aggregate_mode: str = "top_down"
    aggregate_channels: int = 0
    pyramid_file: str = ""


@dataclass
class ModelConfig:
    norm_kind: str = "spn"
    groups: int = 2
    momentum: float = 0.1
    epsilon: float = 1e-5
    head_mode: str = "single"
    feature_channels: int = 16


@dataclass
class LossConfig:
    lambda_dctn: float = 10.0
    lambda_dcsd: float = 0.01
    tau_dctn: float = 2.0
    tau_teacher: float = 0.0001
    tau_student: float = 2.0
    potential_metric: str = "cosine"
    distill_variant: str = "csd"
    n_per_task: int = 10
    new_task_classes: int = 10
    samples_per_class: int = 2
    embedding: str = "logits"


@dataclass
class ReplayConfig:
    policy: str = "ring"
    capacity: int = 50
    replay_batch: int = 64
    enabled: bool = True


@dataclass
class TrainConfig:
    lr: float = 0.03
    batch: int = 10
    inner_updates: int = 2
    seeds: tuple = (0, 1, 2, 3, 4)
    replay_draw: str = "per_update"


@dataclass
class OutputConfig:
    directory: str = "runs"


@dataclass
class ExperimentConfig:
    stream: StreamConfig = field(default_factory=StreamConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def sections(self):
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def _parse_value(path, raw, default):
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValueError("expected true/false")
            return low == "true"
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"must be a finite number, got {raw!r}")
            return value
        if isinstance(default, tuple):
            if raw == "":
                return ()
            parts = [p.strip() for p in raw.split(",")]
            if default and isinstance(default[0], int):
                return tuple(int(p) for p in parts)
            return tuple(parts)
        return raw
    except ValueError as exc:
        raise InvalidValue(path, str(exc)) from None


def _read_pairs(text):
    section = None
    pairs = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if not section:
                raise ParseError(line_no, line)
            pairs.append((line_no, section, None, None))
            continue
        if "=" not in stripped:
            raise ParseError(line_no, line)
        key, _, value = stripped.partition("=")
        if section is None:
            raise ParseError(line_no, line)
        pairs.append((line_no, section, key.strip(), value.strip()))
    return pairs


def apply_override(cfg, path, raw):
    """Set one key by ``section.key`` path, with the same typing as parsing."""
    if "." not in path:
        raise UnknownKey(path)
    section_name, _, key = path.partition(".")
    sections = cfg.sections()
    if section_name not in sections:
        raise UnknownKey(path)
    section = sections[section_name]
    if not hasattr(section, key) or key.startswith("_"):
        raise UnknownKey(path)
    default = getattr(section, key)
    setattr(section, key, _parse_value(path, raw, default))
    return cfg


def parse_config_text(text, overrides=None):
    cfg = ExperimentConfig()
    sections = cfg.sections()
    set_on = {}  # key path -> the line that set it
    for line_no, section_name, key, value in _read_pairs(text):
        if section_name not in sections:
            raise UnknownKey(section_name)
        if key is None:
            continue
        path = f"{section_name}.{key}"
        if path in set_on:
            raise InvalidValue(path, f"set twice, on lines {set_on[path]} and {line_no}")
        set_on[path] = line_no
        apply_override(cfg, path, value)
    for path, raw in (overrides or {}).items():
        apply_override(cfg, path, raw)
    validate(cfg)
    return cfg


def parse_config(path, overrides=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 ({exc.reason})"
        raise ConfigError(f"cannot read config {path}: {reason}") from exc
    return parse_config_text(text, overrides)


def serialize(cfg):
    lines = []
    for name, section in cfg.sections().items():
        lines.append(f"[{name}]")
        for f in dataclasses.fields(section):
            v = getattr(section, f.name)
            if isinstance(v, bool):
                out = "true" if v else "false"
            elif isinstance(v, tuple):
                out = ",".join(str(x) for x in v)
            elif isinstance(v, float):
                out = repr(v)
            else:
                out = str(v)
            lines.append(f"{f.name} = {out}")
        lines.append("")
    return "\n".join(lines)


def _require(cond, path, reason):
    if not cond:
        raise InvalidValue(path, reason)


def validate(cfg):
    s, e, m, l, r, t = cfg.stream, cfg.encoder, cfg.model, cfg.loss, cfg.replay, cfg.train
    _require(s.kind in STREAM_KINDS, "stream.kind", f"one of {STREAM_KINDS}")
    _require(s.tasks >= 1, "stream.tasks", "must be >= 1")
    _require(s.classes_per_task >= 2, "stream.classes_per_task", "must be >= 2")
    _require(s.samples_per_task >= 1, "stream.samples_per_task", "must be >= 1")
    _require(s.test_samples >= 1, "stream.test_samples", "must be >= 1")
    _require(s.dims >= 16 and s.dims % 16 == 0, "stream.dims", "must be a positive multiple of 16")
    _require(s.channels >= 1, "stream.channels", "must be >= 1")
    _require(s.augment in AUGMENT_APPLY, "stream.augment", f"one of {AUGMENT_APPLY}")
    for op in s.augment_ops:
        _require(op in AUGMENT_OPS, "stream.augment_ops", f"{op!r} not in {AUGMENT_OPS}")
    _require(s.kind != "tiny_images" or bool(s.data_dir), "stream.data_dir",
             "required for tiny_images")

    _require(len(e.stage_channels) == 4, "encoder.stage_channels", "need 4 entries")
    _require(all(c >= 1 for c in e.stage_channels), "encoder.stage_channels", "positive")
    _require(all(b >= a for a, b in zip(e.stage_channels, e.stage_channels[1:])),
             "encoder.stage_channels", "must be non-decreasing")
    _require(e.aggregate_mode in AGGREGATE_MODES, "encoder.aggregate_mode",
             f"one of {AGGREGATE_MODES}")
    _require(e.aggregate_channels >= 0, "encoder.aggregate_channels", "must be >= 0")
    _require(e.aggregate_channels == 0 or e.aggregate_mode == "top_down",
             "encoder.aggregate_channels", "only top_down aggregation projects its output")
    _require(not (e.pyramid_file and s.augment != "none"), "encoder.pyramid_file",
             "stored pyramids cannot be re-augmented; set stream.augment = none")

    _require(m.norm_kind in NORM_KINDS, "model.norm_kind", f"one of {NORM_KINDS}")
    _require(m.groups >= 1, "model.groups", "must be >= 1")
    _require(0.0 < m.momentum < 1.0, "model.momentum", "must be in (0,1)")
    _require(m.epsilon > 0, "model.epsilon", "must be positive")
    _require(m.head_mode in ("single", "multi"), "model.head_mode", "single or multi")
    _require(m.feature_channels >= 2, "model.feature_channels", "must be >= 2")
    _require(m.norm_kind != "spn" or m.feature_channels % 2 == 0,
             "model.feature_channels", "spn needs an even channel count")
    _require(m.norm_kind not in ("gn", "cn") or m.feature_channels % m.groups == 0,
             "model.groups", "groups must divide feature_channels")

    _require(l.lambda_dctn >= 0, "loss.lambda_dctn", "must be >= 0")
    _require(l.lambda_dcsd >= 0, "loss.lambda_dcsd", "must be >= 0")
    for name in ("tau_dctn", "tau_teacher", "tau_student"):
        _require(getattr(l, name) > 0, f"loss.{name}", "must be positive")
    _require(l.potential_metric in POTENTIAL_METRICS, "loss.potential_metric",
             f"one of {POTENTIAL_METRICS}")
    _require(l.distill_variant in DISTILL_VARIANTS + ("none",), "loss.distill_variant",
             f"one of {DISTILL_VARIANTS + ('none',)}")
    _require(l.n_per_task >= 1, "loss.n_per_task", "must be >= 1")
    _require(l.new_task_classes >= 1, "loss.new_task_classes", "must be >= 1")
    _require(l.samples_per_class >= 1, "loss.samples_per_class", "must be >= 1")
    _require(l.embedding in ("logits", "penultimate"), "loss.embedding",
             "logits or penultimate")
    _require(l.embedding == "logits" or e.aggregate_mode == "top_down", "loss.embedding",
             "penultimate needs encoder.aggregate_mode = top_down: a head-only classifier's "
             "penultimate rows are the frozen features, so structure-wise distillation "
             "would have no gradient")

    _require(r.policy in ("ring", "reservoir"), "replay.policy", "ring or reservoir")
    _require(r.capacity >= 1, "replay.capacity", "must be >= 1")
    _require(r.replay_batch >= 1, "replay.replay_batch", "must be >= 1")
    _require(l.distill_variant != "tf" or r.policy == "reservoir",
             "loss.distill_variant", "the task-free variant needs a reservoir buffer")
    _require(l.distill_variant != "tf" or m.head_mode == "single",
             "model.head_mode", "the task-free variant has no task ids at eval")
    if l.distill_variant in ("csd", "fsd", "lsd"):
        _require(l.n_per_task <= s.samples_per_task, "loss.n_per_task",
                 "cannot exceed stream.samples_per_task")
        _require(r.policy != "ring" or l.n_per_task <= r.capacity, "loss.n_per_task",
                 "cannot exceed replay.capacity")

    _require(t.lr > 0, "train.lr", "must be positive")
    _require(t.batch >= 1, "train.batch", "must be >= 1")
    _require(t.inner_updates >= 0, "train.inner_updates", "must be >= 0")
    _require(len(t.seeds) >= 1, "train.seeds", "need at least one seed")
    _require(len(set(t.seeds)) == len(t.seeds), "train.seeds", "seeds must be unique")
    _require(all(seed >= 0 for seed in t.seeds), "train.seeds", "seeds must be non-negative")
    _require(t.replay_draw in ("per_update", "single"), "train.replay_draw",
             "per_update or single")
    return cfg
