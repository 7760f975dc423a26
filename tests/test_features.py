"""Frozen-encoder features: batch-independent encoding, the train-side memo,
the per-task test-feature cache and the config-derived feature shape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamcl.tensor as T
import streamcl.trainer as trainer_module
from streamcl.config import parse_config_text
from streamcl.encoder import AGGREGATE_MODES, StoredPyramidEncoder
from streamcl.tensor import Tensor
from streamcl.trainer import (
    FeatureMemo,
    Trainer,
    _encode,
    _features,
    feature_shape,
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
    @pytest.mark.parametrize("dims", [16, 32])
    @pytest.mark.parametrize("mode", AGGREGATE_MODES)
    def test_rows_equal_one_64_row_call(self, mode, dims):
        state = state_for(mode, dims, stage_channels=(8, 16, 32, 64))
        rng = np.random.default_rng(dims)
        pool = rng.normal(size=(64, 1, dims, dims))
        with T.no_grad():
            ref = state.encoder.features(Tensor(pool), mode).data
        for b in range(1, 71):
            rows = rng.permutation(64)[:b] if b <= 64 else rng.integers(0, 64, b)
            got = _encode(state, pool[rows], rows)
            assert np.array_equal(bits(got), bits(ref[rows])), f"{b} rows differ"


def variants(pool):
    """Each pool row as it is, flipped and shifted: the kinds of repeat that
    replay augmentation makes of one stored sample."""
    return np.stack([pool, pool[..., ::-1], np.roll(pool, 1, axis=-1)], axis=1)


CALLS = st.lists(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.booleans()),
             min_size=1, max_size=12),
    min_size=1, max_size=8)


def keys_of(xs, idx):
    return [(int(i), x.tobytes()) for i, x in zip(idx, xs)]


class TestMemo:
    @settings(max_examples=30, deadline=None)
    @given(calls=CALLS)
    def test_every_result_equals_a_fresh_encode(self, calls):
        # a memo of 8 entries, so that calls of up to 12 rows evict inside a call;
        # an aliased row has another sample index with the same input bytes.
        # ``held`` is a reference FIFO of the last 8 distinct keys inserted: a hit
        # keeps its place, so each call must encode exactly the first copies of
        # the distinct keys it lacks, in one call
        state = state_for()
        state.memo = FeatureMemo(8)
        views = variants(np.random.default_rng(1).normal(size=(6, 1, 32, 32)))
        encoded, held = [], []

        def encode(xs, idx):
            encoded.append(keys_of(xs, idx))
            return _encode(state, xs, idx)

        for call in calls:
            xs = np.stack([views[i, v] for i, v, _ in call])
            idx = np.array([i + 10 * alias for i, _, alias in call])
            before = len(encoded)
            got = state.memo.features(xs, idx, encode)
            assert np.array_equal(bits(got), bits(_encode(state, xs, idx)))
            missing = list(dict.fromkeys(k for k in keys_of(xs, idx) if k not in held))
            assert encoded[before:] == ([missing] if missing else [])
            held = (held + missing)[-8:]

    def test_repeats_encode_nothing(self, monkeypatch):
        state, rows = state_for(), []

        def counted(state, xs, indices):
            rows.append(len(xs))
            return _encode(state, xs, indices)

        monkeypatch.setattr(trainer_module, "_encode", counted)
        xs = np.random.default_rng(2).normal(size=(6, 1, 32, 32))
        first = _features(state, xs, np.arange(6))
        again = _features(state, xs[[5, 0, 0, 3]], np.array([5, 0, 0, 3]))
        assert rows == [6]
        assert np.array_equal(bits(again), bits(first[[5, 0, 0, 3]]))
        _features(state, np.concatenate([xs[:2] + 1.0, xs[:2]]), np.arange(4) % 2)
        assert rows == [6, 2]  # new bytes under a stored index are encoded

    def test_stored_pyramid_is_keyed_by_index(self):
        # two samples with identical inputs but different stored pyramids
        state = state_for()
        cfg, rng = state.cfg, np.random.default_rng(3)
        levels = [rng.normal(size=(4, c, 32 >> (i + 1), 32 >> (i + 1)))
                  for i, c in enumerate(cfg.encoder.stage_channels)]
        state.encoder = StoredPyramidEncoder(levels, state.encoder.mixer, 1,
                                             cfg.encoder.stage_channels)
        xs = np.zeros((1, 1, 32, 32))
        h0 = _features(state, xs, np.array([0]))
        h1 = _features(state, xs, np.array([1]))
        assert not np.array_equal(h0, h1)
        assert np.array_equal(bits(h1), bits(_encode(state, xs, np.array([1]))))
        both = _features(state, np.zeros((2, 1, 32, 32)), np.array([1, 0]))
        assert np.array_equal(bits(both), bits(np.concatenate([h1, h0])))


def run_bytes(cfg):
    """Matrix CSV bytes and state fingerprint of a full seed-0 run."""
    trainer = Trainer(cfg, seed=0)
    state = trainer.build_state()
    for t in range(state.stream.n_tasks):
        trainer.train_task(state, t)
        trainer.end_of_task(state, t + 1)
        trainer.evaluate(state, t)
    return "\n".join(state.matrix.csv_lines()).encode(), state_fingerprint(state)


class TestWholeRun:
    @pytest.mark.parametrize("overrides", [
        {},
        {"loss.distill_variant": "tf", "loss.new_task_classes": "2", "replay.policy": "reservoir"},
    ], ids=["csd", "tf"])
    def test_memo_changes_no_byte(self, overrides, monkeypatch):
        # against the same run with every training row encoded afresh
        cfg = parse_config_text(TINY, overrides)
        rows, encode = [], trainer_module._encode

        def counted(state, xs, indices):
            rows.append(len(xs))
            return encode(state, xs, indices)

        monkeypatch.setattr(trainer_module, "_encode", counted)
        memo = run_bytes(cfg)
        memo_rows = sum(rows)
        del rows[:]
        monkeypatch.setattr(trainer_module, "_features", counted)
        assert run_bytes(cfg) == memo
        assert memo_rows < sum(rows)  # the memo did serve some rows


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
