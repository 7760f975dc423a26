"""Tests of the benchmark's pure parts: ``python3 -m pytest perfbench``."""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import (  # noqa: E402
    WORKLOADS,
    BundleError,
    check_bundle,
    percentile,
    reference_metrics,
    tail_percentile,
)
from spans import RepeatCounter, Span, SpanRecorder, aggregate  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(100) == 90
    assert tail_percentile(99) == 89
    assert tail_percentile(150) == 93
    assert tail_percentile(1000) == 99
    assert tail_percentile(20) == 50
    assert tail_percentile(10) is None


def test_percentile_is_nearest_rank():
    values = list(np.random.default_rng(0).permutation(np.arange(1, 101)))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([7.0], 90) == 7.0


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("run", 0.0, 10.0, -1),
        Span("layer", 1.0, 5.0, 0),
        Span("op", 2.0, 3.0, 1),
        Span("op", 2.5, 4.0, 1),     # overlaps its sibling: together they cover 2.0
        Span("layer", 6.0, 9.0, 0),
        Span("layer", 7.0, 8.0, 4),  # nested in its own name: no second call
    ]
    agg = aggregate(spans)
    assert agg["run"].self_s == pytest.approx(3.0)
    assert agg["layer"].self_s == pytest.approx(2.0 + 2.0 + 1.0)
    assert agg["layer"].calls == 2
    assert agg["layer"].total_s == pytest.approx(7.0)
    assert agg["op"].self_s == pytest.approx(2.5)
    assert agg["op"].calls == 2


def test_recorder_tracks_parents_per_thread():
    rec = SpanRecorder()
    inner = rec.wrap(lambda: None, "inner")
    outer = rec.wrap(lambda: inner(), "outer")
    threads = [threading.Thread(target=outer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    for s in rec.spans:
        if s.name == "inner":
            assert rec.spans[s.parent].name == "outer"
            assert rec.spans[s.parent].start <= s.start <= s.end <= rec.spans[s.parent].end
        else:
            assert s.parent == -1
    assert aggregate(rec.spans)["inner"].calls == 4


def test_repeat_share_counts_exact_row_bytes():
    counter = RepeatCounter()
    a = np.arange(8.0).reshape(2, 1, 2, 2)
    counter.observe(a)
    counter.observe(a[::-1])                 # both rows seen before
    b = a.copy()
    b[0, 0, 0, 0] = np.nextafter(0.0, 1.0)   # one ulp away: a new row
    counter.observe(b[:1])
    counter.observe(a.reshape(2, 1, 4, 1))   # same bytes, other shape: new
    assert (counter.rows, counter.repeats) == (7, 2)
    assert counter.share == pytest.approx(2 / 7)


def test_each_workload_config_validates_with_its_fixed_settings():
    from streamcl.config import ExperimentConfig, parse_config, validate

    cfgs = {name: parse_config(str(HERE / "workloads" / f"{name}.cfg")) for name in WORKLOADS}
    for cfg in cfgs.values():
        assert validate(cfg) is cfg
        assert cfg.stream.samples_per_task >= 1

    default = ExperimentConfig()
    default.stream.samples_per_task = cfgs["er_csd_topdown"].stream.samples_per_task
    assert cfgs["er_csd_topdown"] == default

    std = cfgs["er_standard_2seed"]
    assert (std.stream.kind, std.encoder.aggregate_mode) == ("gaussian_blobs", "standard")
    assert (std.loss.distill_variant, std.loss.lambda_dctn) == ("none", 0.0)
    assert (std.replay.capacity, std.stream.augment_ops) == (200, ("crop_pad", "hflip"))
    assert WORKLOADS["er_standard_2seed"] == 2

    tf = cfgs["taskfree_long"]
    assert (tf.loss.distill_variant, tf.replay.policy) == ("tf", "reservoir")
    assert (tf.stream.tasks, tf.loss.new_task_classes) == (10, 2)


def test_reference_metrics_match_compute_metrics():
    from streamcl.streams import compute_metrics

    rng = np.random.default_rng(1)
    for t in range(1, 8):
        a = np.tril(rng.random((t, t)))
        rows = [list(a[i, :i + 1]) for i in range(t)]
        ref = reference_metrics(rows)
        assert (ref["acc"], ref["fm"], ref["la"]) == pytest.approx(compute_metrics(a))


def _bundle(tmp_path, rows, metrics):
    (tmp_path / "matrix_3.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "metrics.txt").write_text("\n".join(metrics) + "\n")
    return tmp_path


GOOD_METRICS = ["seeds = 3", "acc_seed3 = 0.650000", "fm_seed3 = 0.400000",
                "la_seed3 = 0.850000", "acc_mean = 0.650000", "fm_mean = 0.400000",
                "la_mean = 0.850000"]


def test_check_bundle_accepts_a_consistent_bundle(tmp_path):
    out = _bundle(tmp_path, ["0.900000", "0.500000,0.800000"], GOOD_METRICS)
    sha, acc, fm = check_bundle(out, (3,), 2)
    assert len(sha) == 64
    assert (acc, fm) == pytest.approx((0.65, 0.4))


@pytest.mark.parametrize("rows,metrics", [
    (["0.900000", "0.500000"], GOOD_METRICS),                # incomplete row
    (["0.900000", "0.500000,1.200000"], GOOD_METRICS),       # outside [0,1]
    (["0.900000", "nan,0.800000"], GOOD_METRICS),            # not finite
    (["0.900000"], GOOD_METRICS),                            # missing row
    (["0.900000", "0.500000,0.800000"],
     [m.replace("fm_mean = 0.400000", "fm_mean = 0.410000") for m in GOOD_METRICS]),
    (["0.900000", "0.500000,0.800000"], GOOD_METRICS[:1] + GOOD_METRICS[2:]),
])
def test_check_bundle_rejects_bad_bundles(tmp_path, rows, metrics):
    with pytest.raises(BundleError):
        check_bundle(_bundle(tmp_path, rows, metrics), (3,), 2)
