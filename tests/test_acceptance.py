"""Acceptance criteria.

Each criterion runs at its stated tolerance and prints one PASS line
(visible with ``pytest -s``). Criterion 7 is directional at desk scale:
benchmark-scale absolute accuracies need pretrained encoders and real
datasets, so the suite checks that the replay/distillation/aggregation
effects point the right way on the synthetic interference stream.
"""

import time

import numpy as np
import pytest

import streamcl.tensor as T
from streamcl.config import parse_config_text
from streamcl.losses import (
    build_tuple_set,
    kl_pointwise_distill,
    potential_matrix,
    structurewise_distill,
    structurewise_pairs,
    total_objective,
)
from streamcl.memory import ReservoirBuffer, RingBuffer
from streamcl.norms import (
    BatchNorm,
    BlendedSpatialNorm,
    ContinualNorm,
    GroupNorm,
    InstanceNorm,
    LayerNorm,
    SplitParallelNorm,
)
from streamcl.streams import compute_metrics, generate_stream
from streamcl.tensor import Parameter, Tensor
from streamcl.trainer import Trainer, run_experiment
from test_tensor import moments


def _report(n, text):
    print(f"\nPASS criterion {n}: {text}")


# --------------------------------------------------------------------------
# criterion 1: gradient correctness


def _toy_composed_state(seed):
    """t = 3 state with SPN classifier, top-down features, all loss terms."""
    cfg = parse_config_text("""
[stream]
kind = gaussian_blobs
tasks = 3
samples_per_task = 12
test_samples = 4
dims = 16
[encoder]
stage_channels = 2,2,2,2
[model]
feature_channels = 2
[replay]
capacity = 6
replay_batch = 4
[loss]
n_per_task = 2
[train]
batch = 4
""")
    trainer = Trainer(cfg, seed)
    state = trainer.build_state()
    for t in (0, 1):
        trainer.train_task(state, t)
        trainer.end_of_task(state, t + 1)
    assert state.tuple_set.pairs, "need a live structure-wise term"
    batch = next(state.stream.train_batches(2, 4))
    with T.no_grad():
        h_cur = state.encoder.features(Tensor(batch.xs), "top_down").data
    rep = next(state.stream.train_batches(0, 4))
    with T.no_grad():
        h_rep = state.encoder.features(Tensor(rep.xs), "top_down").data
    teacher_logits = state.teacher.logits_np(h_rep)
    weights = trainer.cfg.loss
    # eval mode keeps the closure pure: train-mode forwards would mutate the
    # BN running statistics, which are constants of the optimization step
    state.classifier.eval()

    def objective():
        loss, parts = total_objective(
            state.classifier.forward(Tensor(h_cur)), batch.ys,
            state.classifier.forward(Tensor(h_rep)), rep.ys,
            teacher_logits, state.tuple_set,
            state.classifier.embed, loss_cfg=weights)
        assert set(parts) == {"ce", "er", "dctn", "dcsd"}
        return loss

    return objective, state.classifier.params()


class TestCriterion1Gradients:
    def test_every_op_and_composed_objective(self):
        start = time.time()
        worst = 0.0
        # composed objective on a toy model, 20 seeds, all four terms active
        for seed in range(20):
            objective, params = _toy_composed_state(seed)
            report = T.finite_difference_check(objective, params, step=1e-6, tol=1e-4)
            worst = max(worst, report.max_rel_error)
            assert report.passed, (seed, report)
        # per-op sweep (the tensor suite runs the full 20-seed version; here
        # every op is touched once more through the composite graph)
        rng = np.random.default_rng(0)
        x = Parameter(rng.normal(size=(2, 4, 4, 4)) + 0.1, "x")
        k = Parameter(rng.normal(size=(4, 4, 3, 3)) * 0.3, "k")

        def f():
            y = T.relu(T.conv2d(x, k, stride=1, padding=1))
            y = T.bilinear_up2x(T.maxpool2x2(y))
            a, b = T.take(y, np.s_[:, :2]), T.take(y, np.s_[:, 2:])
            y = T.concat_channels(a * 0.5, b * 0.1)
            m, v = moments(y, axes=(0, 2, 3))
            y = (y - m) * T.power(v + 1e-3, -0.5)
            s = T.log_softmax(y.reshape((2, 64)), axis=1, temperature=2.0)
            return (T.softmax(y.reshape((2, 64)), axis=1) * s).sum() + T.clip(
                T.take(x, (0, 0, 0, 0)) * T.take(x, (0, 0, 0, 0)) + 0.5, 0.1, 10.0)

        report = T.finite_difference_check(f, [x, k], step=1e-6, tol=1e-4)
        assert report.passed, report
        elapsed = time.time() - start
        assert elapsed < 60, f"gradient criterion took {elapsed:.1f}s"
        _report(1, f"max rel error {worst:.2e} over 20 seeds in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 2: normalization moments and identities


class TestCriterion2Norms:
    def test_moments_and_identities(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(scale=1.3, size=(6, 4, 4, 4)))
        for layer, axes in ((BatchNorm(4), (0, 2, 3)), (InstanceNorm(4), (2, 3)),
                            (LayerNorm(4), (1, 2, 3))):
            out = layer(x).data
            m = np.abs(out.mean(axis=axes)).max()
            v = np.abs(((out - out.mean(axis=axes, keepdims=True)) ** 2).mean(axis=axes) - 1).max()
            assert m <= 1e-6 and v <= 1e-4, (layer.kind, m, v)
        gn = GroupNorm(4, 2)(x).data.reshape(12, 2, 4, 4)
        m = np.abs(gn.mean(axis=(1, 2, 3))).max()
        v = np.abs(((gn - gn.mean(axis=(1, 2, 3), keepdims=True)) ** 2).mean(axis=(1, 2, 3)) - 1).max()
        assert m <= 1e-6 and v <= 1e-4

        np.testing.assert_allclose(GroupNorm(4, 1)(x).data, LayerNorm(4)(x).data, atol=1e-12)
        np.testing.assert_allclose(GroupNorm(4, 4)(x).data, InstanceNorm(4)(x).data, atol=1e-12)

        cn = ContinualNorm(4, groups=2)(x).data
        xr = x.data.reshape(12, 2, 4, 4)
        mm = xr.mean(axis=(1, 2, 3), keepdims=True)
        vv = ((xr - mm) ** 2).mean(axis=(1, 2, 3), keepdims=True)
        a_gn = ((xr - mm) / np.sqrt(vv + 1e-5)).reshape(6, 4, 4, 4)
        m2 = a_gn.mean(axis=(0, 2, 3), keepdims=True)
        v2 = ((a_gn - m2) ** 2).mean(axis=(0, 2, 3), keepdims=True)
        np.testing.assert_allclose(cn, (a_gn - m2) / np.sqrt(v2 + 1e-5), atol=1e-12)

        spn = SplitParallelNorm(4)(x).data
        np.testing.assert_array_equal(spn[:, :2], BatchNorm(2)(Tensor(x.data[:, :2])).data)
        np.testing.assert_array_equal(spn[:, 2:], BlendedSpatialNorm(2)(Tensor(x.data[:, 2:])).data)
        _report(2, "moments, GN degenerations, CN two-stage oracle, split-parallel halves")


# --------------------------------------------------------------------------
# criterion 3: distillation stationarity


class TestCriterion3Stationarity:
    def test_all_variants_and_metrics(self):
        # potentials coincide at the snapshot only under a shared temperature,
        # which is what makes the cross-entropy stationary there
        rng = np.random.default_rng(2)
        for variant in ("csd", "fsd", "lsd", "tf"):
            for metric in ("cosine", "l2", "arccos"):
                drawn = {t: (rng.normal(size=(4, 6)), rng.normal(size=(4, 6)))
                         for t in range(1, 6)}
                # anchors of tasks 1-5 in blocks 0-4, their tuples in blocks 5-9
                features = np.concatenate([a for a, _ in drawn.values()]
                                          + [z for _, z in drawn.values()])
                w = Parameter(rng.normal(size=(6, 4)), "w")
                w0 = w.data.copy()
                if variant == "tf":
                    pairs = structurewise_pairs("csd", 23 // 5 + 1)
                else:
                    pairs = structurewise_pairs(variant, 5)
                assert pairs, (variant, "needs live pairs")
                rows = [(a, z, np.arange(4 * a - 4, 4 * a), np.arange(4 * z + 16, 4 * z + 20))
                        for a, z in pairs]
                tset = build_tuple_set(metric, features, rows,
                                       lambda f: Tensor(f @ w0), tau_teacher=2.0)
                w.grad = None
                loss = structurewise_distill(
                    tset, lambda f: T.matmul(Tensor(f), w), tau_student=2.0)
                loss.backward()
                assert np.max(np.abs(w.grad)) < 1e-8, (variant, metric)
        # point-wise KL: zero at identity, nonnegative over 1000 trials
        logits = rng.normal(size=(5, 7))
        assert abs(kl_pointwise_distill(logits, Tensor(logits.copy()), 2.0).item()) <= 1e-12
        for _ in range(1000):
            t = rng.normal(size=(2, 5)) * rng.uniform(0.5, 3)
            s = rng.normal(size=(2, 5)) * rng.uniform(0.5, 3)
            assert kl_pointwise_distill(t, Tensor(s), 2.0).item() >= -1e-15
        _report(3, "gradient max-norm < 1e-8 at snapshot for 4 variants x 3 metrics; KL >= 0")


# --------------------------------------------------------------------------
# criterion 4: potential properties


class TestCriterion4Potentials:
    def test_properties(self):
        rng = np.random.default_rng(3)

        def potentials(a, z, metric, tau):
            return potential_matrix(Tensor(a), Tensor(z), metric, tau).data

        for metric in ("cosine", "l2", "arccos"):
            for tau in (0.0001, 1.0, 2.0):
                p = potentials(rng.normal(size=(6, 8)), rng.normal(size=(5, 8)), metric, tau)
                assert p.min() >= 0 and np.abs(p.sum(axis=1) - 1).max() <= 1e-9
        a, z = rng.normal(size=(4, 8)), rng.normal(size=(6, 8))
        sa = a * rng.uniform(0.1, 9, size=(4, 1))
        sz = z * rng.uniform(0.1, 9, size=(6, 1))
        for metric in ("cosine", "arccos"):
            np.testing.assert_allclose(potentials(sa, sz, metric, 1.0),
                                       potentials(a, z, metric, 1.0), atol=1e-9)

        # t = 2: the consecutive-variant sum is empty, hence exactly zero
        assert structurewise_pairs("csd", 2) == []
        w0 = rng.normal(size=(8, 3))
        tset = build_tuple_set("cosine", None, [], lambda f: Tensor(f @ w0), 2.0)
        assert structurewise_distill(tset, lambda f: Tensor(f @ w0), 2.0).item() == 0.0

        # task-free loop bounds: 20 enumerated (u, S) cases of floor division
        cases = [(23, 10, [2]), (9, 5, []), (10, 5, [2]), (11, 5, [2]), (14, 5, [2]),
                 (15, 5, [2, 3]), (19, 5, [2, 3]), (20, 5, [2, 3, 4]), (25, 5, [2, 3, 4, 5]),
                 (47, 5, [2, 3, 4, 5, 6, 7, 8, 9]), (5, 5, []), (4, 5, []), (50, 10, [2, 3, 4, 5]),
                 (100, 10, list(range(2, 11))), (19, 10, []), (20, 10, [2]), (29, 10, [2]),
                 (30, 10, [2, 3]), (7, 3, [2]), (12, 3, [2, 3, 4])]
        assert len(cases) == 20
        for u, s, expected in cases:
            assert [z for _, z in structurewise_pairs("csd", u // s + 1)] == expected, (u, s)
        _report(4, "probability sums, scale invariance, empty t=2 sum, 20 floor-division cases")


# --------------------------------------------------------------------------
# criterion 5: metrics oracle


class TestCriterion5Metrics:
    def test_oracle_and_worked_example(self):
        rng = np.random.default_rng(4)
        sizes = list(rng.integers(2, 21, size=50))
        for t in sizes:
            a = np.full((t, t), np.nan)
            for i in range(t):
                a[i, :i + 1] = rng.uniform(0, 1, size=i + 1)
            acc, fm, la = compute_metrics(a)
            o_acc = sum(a[t - 1][j] for j in range(t)) / t
            o_la = sum(a[j][j] for j in range(t)) / t
            o_fm = sum(max(a[l][j] for l in range(j, t - 1)) - a[t - 1][j]
                       for j in range(t - 1)) / (t - 1)
            assert abs(acc - o_acc) <= 1e-12
            assert abs(fm - o_fm) <= 1e-12
            assert abs(la - o_la) <= 1e-12
        acc, fm, la = compute_metrics(np.array([[0.9, np.nan], [0.8, 0.7]]))
        assert acc == pytest.approx(0.75, abs=1e-15)
        assert fm == pytest.approx(0.1, abs=1e-15)
        assert la == pytest.approx(0.8, abs=1e-15)
        _report(5, "ACC/FM/LA equal the scalar-loop oracle on 50 matrices, T in 2..20")


# --------------------------------------------------------------------------
# criterion 6: buffer statistics


class TestCriterion6Buffers:
    def test_reservoir_band_and_ring_window(self):
        seeds, n, k = 200, 10_000, 100
        counts = np.zeros(n)
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            buf = ReservoirBuffer(k)
            for i in range(n):
                buf.insert(np.zeros(1), 0, 0, i, rng=rng)
            for it in buf.items():
                counts[it[3]] += 1
        p = k / n
        bucket = n // 10
        trials = seeds * bucket
        sigma = np.sqrt(trials * p * (1 - p))
        devs = []
        for b in range(10):
            got = counts[b * bucket:(b + 1) * bucket].sum()
            devs.append(abs(got - trials * p) / sigma)
            assert devs[-1] <= 3.0, (b, got)

        ring = RingBuffer(50)
        for i in range(137):
            ring.insert(np.zeros(1), 0, 1, i)
        assert sorted(it[3] for it in ring.items()) == list(range(87, 137))
        _report(6, f"reservoir within 3 sigma (worst {max(devs):.2f}); ring keeps exactly the last 50")


# --------------------------------------------------------------------------
# criterion 7: directional continual-learning behavior


ARENA = """
[stream]
kind = rotated_patterns
tasks = 5
classes_per_task = 2
samples_per_task = 500
test_samples = 100
dims = 32
[replay]
replay_batch = 10
{replay}
[loss]
{loss}
[encoder]
{encoder}
[train]
batch = 10
"""

SEEDS = (0, 1, 2, 3, 4)


def _arena_mean(replay="", loss="", encoder=""):
    cfg_text = ARENA.format(replay=replay, loss=loss, encoder=encoder)
    runs = [run_experiment(parse_config_text(cfg_text), s).metrics for s in SEEDS]
    return {k: float(np.mean([r[k] for r in runs])) for k in ("acc", "fm", "la")}


@pytest.fixture(scope="module")
def arena():
    start = time.time()
    results = {
        "finetune": _arena_mean(replay="enabled = false",
                                loss="distill_variant = none\nlambda_dctn = 0"),
        "er": _arena_mean(loss="distill_variant = none\nlambda_dctn = 0"),
        "er_csd": _arena_mean(loss="lambda_dctn = 0"),
        "er_standard": _arena_mean(loss="distill_variant = none\nlambda_dctn = 0",
                                   encoder="aggregate_mode = standard"),
    }
    results["elapsed"] = time.time() - start
    return results


class TestCriterion7Directional:
    def test_a_replay_beats_finetuning(self, arena):
        gap = arena["er"]["acc"] - arena["finetune"]["acc"]
        assert gap >= 0.10, arena
        _report(7, f"(a) ER beats fine-tuning by {100 * gap:.1f} ACC points")

    def test_b_structurewise_reduces_forgetting(self, arena):
        assert arena["er_csd"]["fm"] < arena["er"]["fm"], arena
        _report(7, f"(b) structure-wise distillation: FM {arena['er_csd']['fm']:.4f} "
                   f"< ER {arena['er']['fm']:.4f}")

    def test_c_top_down_learning_accuracy(self, arena):
        assert arena["er"]["la"] >= arena["er_standard"]["la"], arena
        _report(7, f"(c) top-down LA {arena['er']['la']:.4f} >= "
                   f"standard LA {arena['er_standard']['la']:.4f}")

    def test_runtime_budget(self, arena):
        assert arena["elapsed"] < 600, f"{arena['elapsed']:.0f}s"
        _report(7, f"20 runs in {arena['elapsed']:.0f}s (< 600s)")


# --------------------------------------------------------------------------
# criterion 8: bitwise determinism


class TestCriterion8Determinism:
    def test_result_files_bitwise_identical(self, tmp_path):
        from streamcl.cli import main
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("""
[stream]
kind = rotated_patterns
tasks = 2
samples_per_task = 30
test_samples = 20
[encoder]
stage_channels = 4,4,8,8
[model]
feature_channels = 4
[replay]
capacity = 15
replay_batch = 8
[loss]
n_per_task = 5
[train]
batch = 10
seeds = 0
""")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        for name in ("matrix_0.csv", "metrics.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        _report(8, "matrix and metrics files bitwise identical across reruns")
