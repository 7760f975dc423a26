"""Config grammar, validation, CLI commands, output bundles."""

import dataclasses
import os
import re
import stat
import struct
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import streamcl.cli as cli
import streamcl.trainer as trainer
from streamcl.cli import main
from streamcl.config import (
    ExperimentConfig,
    InvalidValue,
    ParseError,
    UnknownKey,
    parse_config_text,
    serialize,
    validate,
)
from streamcl.encoder import AGGREGATE_MODES, save_pyramid_file
from streamcl.losses import DISTILL_VARIANTS, POTENTIAL_METRICS
from streamcl.memory import select_cross_task_tuples
from streamcl.norms import NORM_KINDS
from streamcl.streams import AUGMENT_APPLY, AUGMENT_OPS

TINY_FILE = """
[stream]
kind = gaussian_blobs
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
distill_variant = none
lambda_dctn = 0
[train]
batch = 10
seeds = 0,1
"""

FLOAT_KEYS = [f"{name}.{f.name}" for name, section in ExperimentConfig().sections().items()
              for f in dataclasses.fields(section) if isinstance(getattr(section, f.name), float)]


class TestParsing:
    def test_empty_file_gives_defaults(self):
        cfg = parse_config_text("")
        base = ExperimentConfig()
        assert cfg == base
        assert cfg.train.lr == 0.03
        assert cfg.loss.lambda_dctn == 10.0
        assert cfg.loss.lambda_dcsd == 0.01
        assert cfg.loss.tau_dctn == 2.0
        assert cfg.loss.tau_teacher == 0.0001
        assert cfg.loss.tau_student == 2.0
        assert cfg.loss.n_per_task == 10
        assert cfg.replay.capacity == 50
        assert cfg.train.inner_updates == 2

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidValue) as err:
            parse_config_text("[loss]\nlambda_dcsd = -1\n")
        assert err.value.path == "loss.lambda_dcsd"

    def test_misspelled_key_rejected(self):
        with pytest.raises(UnknownKey) as err:
            parse_config_text("[loss]\nlamda_dcsd = 0.5\n")
        assert "lamda_dcsd" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(UnknownKey):
            parse_config_text("[misc]\nx = 1\n")

    def test_bad_line_reports_number(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("[train]\nlr 0.03\n")
        assert err.value.line_no == 2

    def test_type_errors_are_invalid_values(self):
        with pytest.raises(InvalidValue):
            parse_config_text("[train]\nlr = fast\n")
        with pytest.raises(InvalidValue):
            parse_config_text("[replay]\nenabled = yes\n")

    def test_readme_sample_parses_to_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
        assert len(blocks) == 1
        assert serialize(parse_config_text(blocks[0])) == serialize(parse_config_text(""))

    @pytest.mark.parametrize("path", FLOAT_KEYS)
    def test_non_finite_floats_rejected(self, tmp_path, capsys, path):
        section, key = path.split(".")
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "out"
        for raw in ("inf", "-inf", "1e999", "nan"):
            with pytest.raises(InvalidValue) as err:
                parse_config_text(f"[{section}]\n{key} = {raw}\n")
            assert err.value.path == path
            text = re.sub(rf"^{key} = .*\n", "", TINY_FILE, flags=re.M)  # set the key once
            cfg_path.write_text(text + f"[{section}]\n{key} = {raw}\n")
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: {path}: must be a finite number, got {raw!r}\n")
            cfg_path.write_text(TINY_FILE)
            assert main(["ablate", "--config", str(cfg_path), "--axis", path,
                         f"--values={raw}", "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}: must be a finite number")
            assert sorted(os.listdir(tmp_path)) == ["exp.cfg"]  # nothing created

    def test_key_set_twice_rejected(self, tmp_path, capsys):
        with pytest.raises(InvalidValue) as err:
            parse_config_text("[train]\nlr = 0.1\n[model]\n[train]\nlr = 0.2\n")
        assert err.value.path == "train.lr"
        assert str(err.value) == "train.lr: set twice, on lines 2 and 5"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE + "[replay]\ncapacity = 20\n")
        for command in (["run"], ["ablate", "--axis", "model.norm_kind", "--values", "bn"]):
            assert main(command + ["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == (
                "error: replay.capacity: set twice, on lines 12 and 22\n")
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg"]  # nothing created

    def test_round_trip(self):
        cfg = parse_config_text(TINY_FILE)
        again = parse_config_text(serialize(cfg))
        assert again == cfg

    @given(st.data())
    def test_round_trip_property(self, data):
        positive = st.floats(1e-6, 1e3)
        name = st.text("abcxyz019_./-", max_size=12)
        fields = {
            "stream": dict(kind=st.sampled_from(("rotated_patterns", "gaussian_blobs")),
                           tasks=st.integers(1, 20), classes_per_task=st.integers(2, 10),
                           samples_per_task=st.integers(12, 1000),
                           test_samples=st.integers(1, 500), dims=st.sampled_from((16, 32, 64)),
                           channels=st.integers(1, 4), data_dir=name,
                           augment=st.sampled_from(AUGMENT_APPLY),
                           augment_ops=st.lists(st.sampled_from(AUGMENT_OPS), max_size=3).map(tuple)),
            "encoder": dict(stage_channels=st.lists(st.integers(1, 64), min_size=4, max_size=4)
                            .map(lambda c: tuple(sorted(c))),
                            aggregate_mode=st.sampled_from(AGGREGATE_MODES),
                            aggregate_channels=st.integers(0, 32),
                            pyramid_file=st.just("")),  # a stored pyramid needs augment = none
            "model": dict(norm_kind=st.sampled_from(NORM_KINDS), groups=st.sampled_from((1, 2)),
                          momentum=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          epsilon=positive, head_mode=st.sampled_from(("single", "multi")),
                          feature_channels=st.integers(1, 16).map(lambda c: 2 * c)),
            "loss": dict(lambda_dctn=st.floats(0.0, 1e3), lambda_dcsd=st.floats(0.0, 1e3),
                         tau_dctn=positive, tau_teacher=positive, tau_student=positive,
                         potential_metric=st.sampled_from(POTENTIAL_METRICS),
                         distill_variant=st.sampled_from(DISTILL_VARIANTS + ("none",)),
                         n_per_task=st.integers(1, 12), new_task_classes=st.integers(1, 10),
                         samples_per_class=st.integers(1, 5),
                         embedding=st.sampled_from(("logits", "penultimate"))),
            "replay": dict(policy=st.sampled_from(("ring", "reservoir")),
                           capacity=st.integers(12, 500), replay_batch=st.integers(1, 128),
                           enabled=st.booleans()),
            "train": dict(lr=positive, batch=st.integers(1, 64), inner_updates=st.integers(0, 4),
                          seeds=st.lists(st.integers(0, 999), min_size=1, max_size=5, unique=True)
                          .map(tuple), replay_draw=st.sampled_from(("per_update", "single"))),
            "output": dict(directory=name),
        }
        cfg = ExperimentConfig()
        assert {s: set(k) for s, k in fields.items()} == {
            s: set(vars(sec)) for s, sec in cfg.sections().items()}
        for section, keys in fields.items():
            for key, strategy in keys.items():
                setattr(getattr(cfg, section), key, data.draw(strategy, label=f"{section}.{key}"))
        try:
            validate(cfg)
        except InvalidValue:
            assume(False)
        assert parse_config_text(serialize(cfg)) == cfg

    def test_cross_field_validation(self):
        with pytest.raises(InvalidValue):
            parse_config_text("[loss]\nn_per_task = 60\n")  # exceeds capacity 50
        with pytest.raises(InvalidValue):
            parse_config_text("[loss]\ndistill_variant = tf\n")  # needs reservoir
        with pytest.raises(InvalidValue):
            parse_config_text("[encoder]\npyramid_file = x.bin\n")  # needs augment none

    def test_n_per_task_above_stream_length_rejected(self, tmp_path, capsys):
        text = "[stream]\nsamples_per_task = 4\n[loss]\nn_per_task = 10\n"
        with pytest.raises(InvalidValue) as err:
            parse_config_text(text)
        assert err.value.path == "loss.n_per_task"
        parse_config_text(text + "distill_variant = tf\n[replay]\npolicy = reservoir\n")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: loss.n_per_task")

    @pytest.mark.parametrize("mode", ["standard", "bottom_up"])
    def test_penultimate_embedding_needs_top_down(self, tmp_path, capsys, mode):
        # a head-only classifier's penultimate rows are the frozen features
        text = TINY_FILE.replace("distill_variant = none", "distill_variant = csd\n"
                                 "embedding = penultimate")
        parse_config_text(text)  # top-down, the default, accepts it
        text = text.replace("[encoder]", f"[encoder]\naggregate_mode = {mode}")
        with pytest.raises(InvalidValue) as err:
            parse_config_text(text)
        assert err.value.path == "loss.embedding"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: loss.embedding")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["standard", "bottom_up"])
    def test_aggregate_channels_needs_top_down(self, tmp_path, capsys, mode):
        # only top-down aggregation ends in the extra projection
        text = TINY_FILE.replace("[encoder]", "[encoder]\naggregate_channels = 12")
        parse_config_text(text)  # top-down, the default, accepts it
        text = text.replace("[encoder]", f"[encoder]\naggregate_mode = {mode}")
        parse_config_text(text.replace("aggregate_channels = 12", "aggregate_channels = 0"))
        with pytest.raises(InvalidValue) as err:
            parse_config_text(text)
        assert err.value.path == "encoder.aggregate_channels"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: encoder.aggregate_channels")
        assert not out.exists()

    def test_negative_seeds_rejected(self, tmp_path, capsys):
        with pytest.raises(InvalidValue) as err:
            parse_config_text("[train]\nseeds = -3\n")
        assert err.value.path == "train.seeds"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("seeds = 0,1", "seeds = -3"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: train.seeds")
        cfg_path.write_text(TINY_FILE)
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seeds", "-1"]) == 2
        assert main(["ablate", "--config", str(cfg_path), "--axis", "model.norm_kind",
                     "--values", "bn", "--seeds", "0,-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: train.seeds: seeds must be non-negative\n" * 2
        assert not out.exists()


def _tiny_images_dir(path, labels):
    """A 2-task, 16x16 tiny_images directory: 25 images of each of the four labels."""
    path.mkdir()
    np.save(path / "images.npy", np.random.default_rng(3).normal(size=(100, 1, 16, 16)))
    (path / "labels.txt").write_text(" ".join(str(l) for l in np.repeat(labels, 25)))
    return TINY_FILE.replace("seeds = 0,1", "seeds = 0").replace(
        "kind = gaussian_blobs", f"kind = tiny_images\ndims = 16\ndata_dir = {path}")


def _npz_archive(path):
    np.savez(path, np.zeros((100, 1, 16, 16)))
    return path


class TestCmdRun:
    def test_fanout_and_aggregate(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert sorted(os.listdir(out)) == ["manifest.txt", "matrix_0.csv", "matrix_1.csv", "metrics.txt"]
        metrics = dict(line.split(" = ") for line in
                       (out / "metrics.txt").read_text().splitlines())
        per_seed = [float(metrics["acc_seed0"]), float(metrics["acc_seed1"])]
        assert float(metrics["acc_mean"]) == pytest.approx(np.mean(per_seed), abs=1e-6)
        assert "acc_std" in metrics

    def test_manifest_environment_and_memory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        head = (out / "manifest.txt").read_text().split("\n# config echo\n")[0]
        record = dict(line.split(" = ") for line in head.splitlines()
                      if not line.startswith("#"))
        assert record["numpy"] == np.__version__
        assert re.fullmatch(r"\S+ \d+(\.\d+)*", record["blas"]), record["blas"]
        assert record["OPENBLAS_NUM_THREADS"] == "1"
        assert record["MKL_NUM_THREADS"] == "unset"
        assert set(cli.THREAD_VARS) <= set(record)
        walls = [float(s) for s in record["seed_wall_s"].split(",")]
        assert len(walls) == 2 and all(0 < w <= float(record["wall_time_s"]) for w in walls)
        if sys.platform.startswith("linux"):
            assert 10 < float(record["peak_rss_mb"]) < 100_000

    def test_aggregate_mean_matches_matrix_files(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        metrics = dict(line.split(" = ") for line in
                       (out / "metrics.txt").read_text().splitlines())
        for seed in (0, 1):
            rows = [[float(v) for v in line.split(",")]
                    for line in (out / f"matrix_{seed}.csv").read_text().splitlines()]
            acc = np.mean(rows[-1])
            assert float(metrics[f"acc_seed{seed}"]) == pytest.approx(acc, abs=1e-6)

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("seeds = 0,1", "seeds = 0"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "force" in capsys.readouterr().err
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--force"]) == 0

    @pytest.mark.parametrize("name, spoil", [
        ("labels.txt", lambda bad: bad.write_text(bad.read_text() + " x")),
        ("images.npy", lambda bad: np.save(bad, np.array([{}] * 100), allow_pickle=True)),
        ("images.npy", lambda bad: _npz_archive(bad.with_suffix(".npz")).replace(bad)),
        ("images.npy", lambda bad: np.save(bad, np.where(np.arange(100).reshape(-1, 1, 1, 1) % 2,
                                                         np.nan, np.load(bad)))),
    ], ids=["label_token", "pickled", "npz", "non_finite"])
    def test_unreadable_tiny_images_file_exits_2(self, tmp_path, capsys, name, spoil):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(_tiny_images_dir(tmp_path / "data", np.arange(4)))
        bad = tmp_path / "data" / name
        spoil(bad)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert sorted(os.listdir(tmp_path)) == ["data", "exp.cfg"]  # no output directory left

    def test_tiny_images_labels_numbered_by_rank(self, tmp_path):
        matrices = []
        for base in (0, 1):
            cfg_path = tmp_path / f"exp{base}.cfg"
            cfg_path.write_text(_tiny_images_dir(tmp_path / f"data{base}", np.arange(4) + base))
            out = tmp_path / f"out{base}"
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            matrices.append((out / "matrix_0.csv").read_bytes())
        assert matrices[0] == matrices[1]

    def test_force_replaces_the_whole_bundle(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seeds", "5", "--force"]) == 0
        assert sorted(os.listdir(out)) == ["manifest.txt", "matrix_5.csv", "metrics.txt"]
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "out"]

    def test_crash_while_writing_leaves_no_half_bundle(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("seeds = 0,1", "seeds = 0"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}

        def crash(outdir, cfg, results, wall_time):
            (tmp_path / outdir / "matrix_5.csv").write_text("partial")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_bundle", crash)
        with pytest.raises(OSError, match="disk full"):
            main(["run", "--config", str(cfg_path), "--out", str(out), "--seeds", "5", "--force"])
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "out"]

    def test_force_refuses_to_delete_foreign_entries(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("seeds = 0,1", "seeds = 0"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("keep me")
        (out / "plots").mkdir()
        (out / "plots" / "manifest.txt").write_text("not a bundle")
        (out / "plots" / "fig.png").write_text("keep me too")
        for foreign in ("notes.txt", "plots"):
            before = sorted(os.listdir(out))
            assert main(["run", "--config", str(cfg_path), "--out", str(out), "--force"]) == 2
            assert foreign in capsys.readouterr().err
            assert sorted(os.listdir(out)) == before
            (out / foreign).rename(tmp_path / foreign)
        assert (tmp_path / "notes.txt").read_text() == "keep me"

    def test_force_keeps_the_directory_itself(self, tmp_path, monkeypatch):
        # a symlinked --out stays a link, keeps its mode, and may be the working directory
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("seeds = 0,1", "seeds = 0"))
        real = tmp_path / "real"
        real.mkdir()
        real.chmod(0o750)
        (tmp_path / "link").symlink_to(real)
        monkeypatch.chdir(real)
        for out in (str(tmp_path / "link"), "."):
            assert main(["run", "--config", str(cfg_path), "--out", out, "--seeds", "5",
                         "--force"]) == 0
            assert (tmp_path / "link").is_symlink()
            assert stat.S_IMODE(real.stat().st_mode) == 0o750
            assert sorted(os.listdir(real)) == ["manifest.txt", "matrix_5.csv", "metrics.txt"]

    def test_byte_deterministic_outputs(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("seeds = 0,1", "seeds = 3"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        main(["run", "--config", str(cfg_path), "--out", str(out2)])
        for name in ("matrix_3.csv", "metrics.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_reservoir_tuple_shortfall_completes(self, tmp_path, monkeypatch):
        # a reservoir keeps no fixed share per task, so a stored task can hold
        # fewer than n_per_task samples at a boundary; it then gives all it has
        text = TINY_FILE.replace("tasks = 2", "tasks = 3")
        text = text.replace("capacity = 15", "policy = reservoir\ncapacity = 15")
        text = text.replace("distill_variant = none", "distill_variant = csd")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text.replace("seeds = 0,1", "seeds = 0"))
        sizes = []

        def recording(*args, **kwargs):
            selection = select_cross_task_tuples(*args, **kwargs)
            sizes.extend(len(b) for b in selection.values())
            return selection

        monkeypatch.setattr(trainer, "select_cross_task_tuples", recording)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert min(sizes) < 5 and max(sizes) == 5
        assert sorted(os.listdir(out)) == ["manifest.txt", "matrix_0.csv", "metrics.txt"]
        rows = (out / "matrix_0.csv").read_text().splitlines()
        assert len(rows) == 3
        metrics = dict(line.split(" = ") for line in (out / "metrics.txt").read_text().splitlines())
        assert all(np.isfinite(float(metrics[f"{m}_seed0"])) for m in ("acc", "fm", "la"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_1_without_a_bundle(self, tmp_path, capsys):
        # relu maps NaN activations to 0, so the loss stays finite while the
        # convolutions and norms are NaN; only the parameters show it
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("[stream]\nsamples_per_task = 60\n[train]\nlr = 1000\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seeds", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at task 2, batch 6, update 24: clf.conv1 ")
        assert "train.lr" in err
        assert not out.exists()

    @pytest.mark.parametrize("shapes, level", [
        ([(2, 16, 16)], "level 1 has 2 channels"),
        ([(4, 16, 16), (4, 16, 16)], "level 2 is (16, 16)"),
        ([(4, 16, 16), (4, 8, 8), (8, 4, 4), (8, 2, 2), (8, 1, 1)], "5 levels"),
        ([(4, 32, 32), (4, 16, 16), (8, 8, 8), (8, 4, 4)], "level 1 is (32, 32)"),
        ([(4, 16, 16), (4, 8, 8), (8, 4, 4)], "3 levels"),
    ])
    def test_pyramid_disagreeing_with_config_exits_2(self, tmp_path, capsys, shapes, level):
        pyramid = tmp_path / "pyr.bin"
        save_pyramid_file(pyramid, [np.zeros((100,) + shape) for shape in shapes])
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("[stream]\n", "[stream]\naugment = none\n")
                            .replace("[encoder]\n", f"[encoder]\npyramid_file = {pyramid}\n"))
        out = tmp_path / "out" / "nested"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pyramid}: ") and level in err
        # the failed run leaves no directory it made, and an existing one untouched
        assert not (tmp_path / "out").exists()
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["run", "--config", str(cfg_path), "--out", str(empty)]) == 2
        assert os.listdir(empty) == []

    @pytest.mark.parametrize("case, reason", [
        ("overflow", f"needs {8 * 2**124} bytes"),  # the u32 dims' product wraps to 0 in int64
        ("overlong", "needs 8192000 bytes, the file holds"),
        ("non_finite", "level 1 holds non-finite values"),
    ], ids=["overflow", "overlong", "non_finite"])
    def test_unusable_pyramid_file_exits_2(self, tmp_path, capsys, case, reason):
        levels = [np.zeros((100, c, w, w)) for c, w in ((4, 16), (4, 8), (8, 4), (8, 2))]
        if case == "non_finite":
            levels[0][::2] = np.nan
        pyramid = tmp_path / "pyr.bin"
        save_pyramid_file(pyramid, levels)
        dims = {"overflow": (2**31,) * 4, "overlong": (1000, 4, 16, 16)}.get(case)
        if dims:  # rewrite the first level's header
            data = pyramid.read_bytes()
            pyramid.write_bytes(data[:16] + struct.pack("<IIII", *dims) + data[32:])
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("[stream]\n", "[stream]\naugment = none\n")
                            .replace("[encoder]\n", f"[encoder]\npyramid_file = {pyramid}\n"))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pyramid}: ") and reason in err
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "pyr.bin"]  # no output directory left


    def test_seed_override_flag(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_path), "--out", str(out), "--seeds", "7"])
        assert sorted(f for f in os.listdir(out) if f.startswith("matrix")) == ["matrix_7.csv"]

    def test_manifest_echoes_the_seeds_that_ran(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE)  # seeds = 0,1
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                     "--seeds", "3"]) == 0
        assert main(["ablate", "--config", str(cfg_path), "--axis", "model.norm_kind",
                     "--values", "bn", "--out", str(tmp_path / "ab"), "--seeds", "3"]) == 0
        for manifest in (tmp_path / "run" / "manifest.txt", tmp_path / "ab" / "bn" / "manifest.txt"):
            head, echo = manifest.read_text().split("\n# config echo\n")
            assert "\nseeds = 3\n" in head
            assert parse_config_text(echo).train.seeds == (3,)

    @pytest.mark.parametrize("command", [
        ["run"], ["ablate", "--axis", "model.norm_kind", "--values", "bn"]], ids=["run", "ablate"])
    def test_duplicate_seeds_rejected(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE)
        out = tmp_path / "out"
        assert main(command + ["--config", str(cfg_path), "--out", str(out), "--seeds", "0,0"]) == 2
        assert capsys.readouterr().err == "error: train.seeds: seeds must be unique\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run"], ["ablate", "--axis", "model.norm_kind", "--values", "bn"]], ids=["run", "ablate"])
    def test_bad_paths_exit_2(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("seeds = 0,1", "seeds = 0"))
        missing = tmp_path / "missing.cfg"
        assert main(command + ["--config", str(missing), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {missing}: ")
        taken = tmp_path / "taken"
        taken.write_text("keep")
        for out in (taken, taken / "sub"):
            assert main(command + ["--config", str(cfg_path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: --out {out}: {taken} is not a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "taken"]  # nothing created
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("command", [
        ["run"], ["ablate", "--axis", "model.norm_kind", "--values", "bn"]], ids=["run", "ablate"])
    def test_non_utf8_config_exits_2(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_bytes(b"# \xff\xfe\n" + TINY_FILE.encode())
        assert main(command + ["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot read config {cfg_path}: not UTF-8 (")
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg"]  # nothing created


class TestCmdAblate:
    def test_norm_kind_axis_table(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("seeds = 0,1", "seeds = 0"))
        out = tmp_path / "ab"
        rc = main(["ablate", "--config", str(cfg_path), "--axis", "model.norm_kind",
                   "--values", "bn,cn,spn", "--out", str(out)])
        assert rc == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "value,acc_mean,acc_std,fm_mean,fm_std,la_mean,la_std"
        assert [l.split(",")[0] for l in lines[1:]] == ["bn", "cn", "spn"]
        assert sorted(os.listdir(out / "bn")) == ["manifest.txt", "matrix_0.csv", "metrics.txt"]

    def test_manifest_wall_time_is_per_value(self, tmp_path, monkeypatch):
        clock = [1000.0]
        run_seeds = cli._run_seeds

        def five_second_run(cfg):
            clock[0] += 5.0
            return run_seeds(cfg)

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(time=lambda: clock[0]))
        monkeypatch.setattr(cli, "_run_seeds", five_second_run)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("seeds = 0,1", "seeds = 0"))
        out = tmp_path / "ab"
        assert main(["ablate", "--config", str(cfg_path), "--axis", "model.norm_kind",
                     "--values", "bn,in,ln", "--out", str(out)]) == 0
        for value in ("bn", "in", "ln"):
            assert "wall_time_s = 5.000\n" in (out / value / "manifest.txt").read_text()

    def test_force_replaces_the_whole_sweep(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("seeds = 0,1", "seeds = 0"))
        out = tmp_path / "ab"
        args = ["ablate", "--config", str(cfg_path), "--axis", "model.norm_kind", "--out", str(out)]
        assert main(args + ["--values", "bn,cn"]) == 0
        assert main(args + ["--values", "ln", "--force"]) == 0
        assert sorted(os.listdir(out)) == ["ablation.csv", "ln"]

    @pytest.mark.parametrize("values, named", [
        ("..,x", "'..': "),
        (".", "'.': "),
        ("a/b,a_b", "'a/b', 'a_b': "),
        ("x,ablation.csv", "'ablation.csv': "),
    ], ids=["dotdot", "dot", "clash", "table"])
    def test_values_need_one_subdirectory_each(self, tmp_path, capsys, values, named):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("seeds = 0,1", "seeds = 0"))
        out = tmp_path / "stage" / "ab"
        assert main(["ablate", "--config", str(cfg_path), "--axis", "stream.data_dir",
                     "--values", values, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --values {named}")
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg"]  # no output directory made

    def test_every_value_is_validated_before_the_first_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_run_seeds", lambda cfg: calls.append(cfg) or [])
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE.replace("seeds = 0,1", "seeds = 0"))
        out = tmp_path / "ab"
        assert main(["ablate", "--config", str(cfg_path), "--axis", "model.norm_kind",
                     "--values", "bn,zz", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: model.norm_kind")
        assert calls == []
        assert not out.exists()

    def test_seeds_axis_refuses_seeds_flag(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_run_seeds", lambda cfg: calls.append(cfg) or [])
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE)
        out = tmp_path / "ab"
        assert main(["ablate", "--config", str(cfg_path), "--axis", "train.seeds",
                     "--values", "0,1", "--seeds", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --seeds would override")
        assert calls == []
        assert not out.exists()

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_FILE)
        rc = main(["ablate", "--config", str(cfg_path), "--axis", "loss.no_such",
                   "--values", "1,2", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "no_such" in capsys.readouterr().err

    def test_n_per_task_axis(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        text = TINY_FILE.replace("distill_variant = none", "distill_variant = csd")
        text = text.replace("seeds = 0,1", "seeds = 0")
        cfg_path.write_text(text)
        out = tmp_path / "ab"
        rc = main(["ablate", "--config", str(cfg_path), "--axis", "loss.n_per_task",
                   "--values", "5,10", "--out", str(out)])
        assert rc == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_distill_variant_axis(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        text = TINY_FILE.replace("distill_variant = none", "distill_variant = csd")
        text = text.replace("tasks = 2", "tasks = 3")
        text = text.replace("seeds = 0,1", "seeds = 0")
        cfg_path.write_text(text)
        out = tmp_path / "ab"
        rc = main(["ablate", "--config", str(cfg_path), "--axis", "loss.distill_variant",
                   "--values", "csd,fsd,lsd", "--out", str(out)])
        assert rc == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["csd", "fsd", "lsd"]


class TestCmdCheck:
    def test_pristine_build_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_injected_fault_fails_gradient_group(self, capsys):
        assert main(["check", "--inject-fault"]) == 1
        out = capsys.readouterr().out
        assert "FAIL gradients" in out
