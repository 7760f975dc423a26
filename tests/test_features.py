"""Frozen-encoder features: batch-independent encoding, the train-side memo,
the per-task test-feature cache and the config-derived feature shape."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamcl.tensor as T
import streamcl.trainer as trainer_module
from streamcl.config import parse_config_text
from streamcl.encoder import AGGREGATE_MODES, StoredPyramidEncoder
from streamcl.streams import CROP_PAD, NO_DRAW, apply_draws
from streamcl.tensor import Tensor
from streamcl.trainer import (
    FeatureEncoder,
    FeatureMemo,
    Trainer,
    _block_rows,
    _encode,
    _padded_rows,
    feature_shape,
    run_experiment,
    state_fingerprint,
)

TINY = """
[stream]
kind = gaussian_blobs
tasks = 3
samples_per_task = 40
test_samples = 30
[encoder]
stage_channels = 4,4,8,8
[model]
feature_channels = 4
[replay]
capacity = 20
replay_batch = 8
"""


def state_for(mode="top_down", dims=32, stage_channels=None, aggregate_channels=0):
    cfg = parse_config_text(TINY)
    cfg.encoder.aggregate_mode = mode
    cfg.encoder.aggregate_channels = aggregate_channels
    cfg.stream.dims = dims
    if stage_channels is not None:
        cfg.encoder.stage_channels = stage_channels
    return Trainer(cfg, seed=0).build_state()


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def no_draws(n):
    """The draws of ``n`` rows that augmentation left as they are."""
    return np.tile(NO_DRAW, (n, 1))


def counting_encoder(state):
    """Wrap the state's encoder so each call adds its row count to the list."""
    rows, features = [], state.encoder.features

    def counted(x, mode, indices=None):
        rows.append(x.shape[0])
        return features(x, mode, indices=indices)

    state.encoder.features = counted
    return rows


class TestBatchIndependence:
    # The default config's stage channels: the deepest level's GEMMs take
    # rows * (dims/16)**2 columns, which padding brings to a multiple of 8.
    @pytest.mark.parametrize("dims", [16, 32, 48])
    @pytest.mark.parametrize("mode", AGGREGATE_MODES)
    def test_rows_equal_one_64_row_call(self, mode, dims):
        state = state_for(mode, dims, stage_channels=(8, 16, 32, 64))
        rng = np.random.default_rng(dims)
        pool = rng.normal(size=(64, 1, dims, dims))
        with T.no_grad():
            ref = state.encoder.features(Tensor(pool), mode).data
        block, calls = _block_rows(state.cfg), counting_encoder(state)
        for b in range(1, 71):
            rows = rng.permutation(64)[:b] if b <= 64 else rng.integers(0, 64, b)
            del calls[:]
            got = _encode(state.encoder, state.cfg, pool[rows], rows)
            assert np.array_equal(bits(got), bits(ref[rows])), f"{b} rows differ"
            # whole blocks, then the rest padded
            rest = [_padded_rows(b % block, dims)] if b % block else []
            assert calls == [block] * (b // block) + rest

    @pytest.mark.parametrize("mode, dims, rows", [
        ("top_down", 32, 16),  # the default: 16 KiB of (8, 16, 16) features a row
        ("standard", 32, 32),
        ("bottom_up", 32, 32),
        ("top_down", 16, 32),
        ("top_down", 48, 8),  # 7 rows of (8, 24, 24) fit; 8 is the next unpadded count
        ("standard", 48, 32),
    ])
    def test_block_rows_follow_the_byte_bound(self, mode, dims, rows):
        assert _block_rows(state_for(mode, dims, stage_channels=(8, 16, 32, 64)).cfg) == rows


class TestEncodeTransient:
    def test_64_default_top_down_rows_peak_under_9_mib(self):
        # one block's im2col buffers dominate the peak, so the byte bound caps it
        state = Trainer(parse_config_text(""), seed=0).build_state()
        xs = state.stream.tasks[0].train.xs[:64]
        tracemalloc.start()
        try:
            _encode(state.encoder, state.cfg, xs, np.arange(64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20, f"{peak / 2**20:.2f} MiB"


DRAWS = [NO_DRAW, (2, 2, 1), (0, 3, 0), (4, 1, 1)]

CALLS = st.lists(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, len(DRAWS) - 1)),
             min_size=1, max_size=12),
    min_size=1, max_size=8)


def drawn(x, draw):
    """Input row ``x`` under ``draw = (ow, oh, flip)``: zero-padded, cropped and flipped."""
    ow, oh, flip = draw
    w, h = x.shape[1:]
    padded = np.pad(x, ((0, 0), (CROP_PAD, CROP_PAD), (CROP_PAD, CROP_PAD)))
    row = padded[:, ow:ow + w, oh:oh + h]
    return np.ascontiguousarray(row[:, ::-1] if flip else row)


class TestMemo:
    @settings(max_examples=30, deadline=None)
    @given(calls=CALLS)
    def test_every_result_equals_a_fresh_encode(self, calls):
        # a memo of 8 entries, so that calls of up to 12 rows evict inside a call;
        # an aliased row is the same sample index under another draw. ``held`` is a
        # reference FIFO of the last 8 distinct keys inserted: a hit keeps its place,
        # so each call must encode exactly the first rows of the distinct keys it
        # lacks, drawn from the raw inputs, in one call
        state, memo = state_for(), FeatureMemo(8)
        pool = np.random.default_rng(1).normal(size=(6, 1, 32, 32))
        rows = {(i, *d): drawn(pool[i], d) for i in range(6) for d in DRAWS}
        encoded, held = [], []

        def encode(xs, idx):
            encoded.append([(int(i), x.tobytes()) for i, x in zip(idx, xs)])
            return _encode(state.encoder, state.cfg, xs, idx)

        for call in calls:
            keys = [(i, *DRAWS[d]) for i, d in call]
            xs = np.stack([rows[k] for k in keys])
            idx, draws = np.array([k[0] for k in keys]), np.array([k[1:] for k in keys])
            before = len(encoded)
            got = memo.features(pool[idx], idx, draws, encode)
            assert np.array_equal(bits(got), bits(_encode(state.encoder, state.cfg, xs, idx)))
            missing = list(dict.fromkeys(k for k in keys if k not in held))
            want = [(k[0], rows[k].tobytes()) for k in missing]
            assert encoded[before:] == ([want] if missing else [])
            held = (held + missing)[-8:]

    def test_repeats_encode_nothing(self, monkeypatch):
        state, rows = state_for(), []

        def counted(encoder, cfg, xs, indices):
            rows.append(len(xs))
            return _encode(encoder, cfg, xs, indices)

        monkeypatch.setattr(trainer_module, "_encode", counted)
        xs = np.random.default_rng(2).normal(size=(6, 1, 32, 32))
        first = state.features(xs, np.arange(6), no_draws(6))
        again = state.features(xs[[5, 0, 0, 3]], np.array([5, 0, 0, 3]), no_draws(4))
        assert rows == [6]
        assert np.array_equal(bits(again), bits(first[[5, 0, 0, 3]]))
        flip = (CROP_PAD, CROP_PAD, 1)
        draws = np.array([flip, flip, NO_DRAW, NO_DRAW])
        mixed = state.features(xs[np.arange(4) % 2], np.arange(4) % 2, draws)
        assert rows == [6, 2]  # a new draw of a stored index is encoded
        assert np.array_equal(bits(mixed[2:]), bits(first[:2]))
        again = state.features(xs[[1, 0]], np.array([1, 0]), draws[:2])
        assert rows == [6, 2]  # a repeated draw is not
        assert np.array_equal(bits(again), bits(mixed[1::-1]))

    def test_stored_pyramid_is_keyed_by_index(self):
        # two samples with identical inputs but different stored pyramids
        state = state_for()
        cfg, rng = state.cfg, np.random.default_rng(3)
        levels = [rng.normal(size=(4, c, 32 >> (i + 1), 32 >> (i + 1)))
                  for i, c in enumerate(cfg.encoder.stage_channels)]
        state.encoder = StoredPyramidEncoder(levels, state.encoder.mixer, 1,
                                             cfg.encoder.stage_channels)
        state.features = FeatureEncoder(state.encoder, cfg)
        xs = np.zeros((1, 1, 32, 32))
        h0 = state.features(xs, np.array([0]), no_draws(1))
        h1 = state.features(xs, np.array([1]), no_draws(1))
        assert not np.array_equal(h0, h1)
        assert np.array_equal(bits(h1), bits(_encode(state.encoder, cfg, xs, np.array([1]))))
        both = state.features(np.zeros((2, 1, 32, 32)), np.array([1, 0]), no_draws(2))
        assert np.array_equal(bits(both), bits(np.concatenate([h1, h0])))


def run_bytes(cfg):
    """Matrix CSV bytes and state fingerprint of a full seed-0 run."""
    trainer = Trainer(cfg, seed=0)
    state = trainer.run(trainer.build_state())
    return "\n".join(state.matrix.csv_lines()).encode(), state_fingerprint(state)


class TestWholeRun:
    @pytest.mark.parametrize("overrides", [
        {},
        {"loss.distill_variant": "tf", "loss.new_task_classes": "2", "replay.policy": "reservoir"},
        {"stream.augment_ops": "crop_pad,hflip", "stream.augment": "all"},
    ], ids=["csd", "tf", "flip_all"])
    def test_memo_changes_no_byte(self, overrides, monkeypatch):
        # against the same run with every training row encoded afresh
        cfg = parse_config_text(TINY, overrides)
        rows, encode = [], trainer_module._encode

        def counted(encoder, cfg, xs, indices):
            rows.append(len(xs))
            return encode(encoder, cfg, xs, indices)

        monkeypatch.setattr(trainer_module, "_encode", counted)
        memo = run_bytes(cfg)
        memo_rows = sum(rows)
        del rows[:]
        monkeypatch.setattr(FeatureMemo, "features",
                            lambda memo, xs, indices, draws, encode:
                            encode(apply_draws(xs, draws), indices))
        assert run_bytes(cfg) == memo
        assert memo_rows < sum(rows)  # the memo did serve some rows


def test_a_finished_run_frees_its_state(monkeypatch):
    # the state and its feature source form no cycle, so the caches go with the
    # run, before the next seed builds its own, without the cycle collector
    refs, build = [], Trainer.build_state

    def kept(self):
        state = build(self)
        refs.append(weakref.ref(state))
        return state

    monkeypatch.setattr(Trainer, "build_state", kept)
    gc.disable()
    try:
        run_experiment(parse_config_text(TINY), 0)
        assert refs[0]() is None
    finally:
        gc.enable()


class TestTestFeatureCache:
    def test_second_evaluate_encodes_no_rows(self):
        trainer = Trainer(parse_config_text(TINY), seed=0)
        state = trainer.build_state()
        trainer.train_task(state, 0)
        rows = counting_encoder(state)
        first = trainer.evaluate(state, 0).copy()
        assert sum(rows) >= 30
        del rows[:]
        assert np.array_equal(trainer.evaluate(state, 0), first)
        assert rows == []


class TestFeatureShape:
    @pytest.mark.parametrize("aggregate_channels", [0, 4, 6])
    @pytest.mark.parametrize("dims", [16, 32, 48])
    @pytest.mark.parametrize("mode", AGGREGATE_MODES)
    def test_config_gives_the_forward_shape(self, mode, dims, aggregate_channels):
        state = state_for(mode, dims, aggregate_channels=aggregate_channels)
        with T.no_grad():
            out = state.encoder.features(Tensor(np.zeros((1, 1, dims, dims))), mode)
        assert feature_shape(state.cfg) == out.shape[1:]
