"""The feature worker (``streamcl.worker``): a forked process that encodes a
seed's rows ahead of training, beside the main process's own share of a
head-only run's rows. A worker run is byte-identical to the
trainer's inline loop, a run's bytes do not depend on the BLAS thread count
it starts with, and no run leaves a process behind, however it ends."""

import errno
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import streamcl.tensor as T
import streamcl.trainer as trainer_module
from streamcl import worker
from streamcl.cli import main
from streamcl.config import parse_config_text
from streamcl.encoder import MultiScaleEncoder, save_pyramid_file
from streamcl.tensor import InvalidConfig, Tensor
from streamcl.trainer import Trainer, run_experiment, state_fingerprint

SRC = Path(__file__).resolve().parent.parent / "src"
INLINE_REASON = worker._inline_reason()
needs_worker = pytest.mark.skipif(INLINE_REASON is not None,
                                  reason=f"runs encode inline here: {INLINE_REASON}")

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
[loss]
n_per_task = 5
[train]
batch = 10
"""

TF = {"loss.distill_variant": "tf", "loss.new_task_classes": "2",
      "loss.samples_per_class": "2", "replay.policy": "reservoir"}
HEAD_ONLY = {"encoder.aggregate_mode": "standard"}  # a head-only classifier: two shares


def inline_run(cfg, seed):
    """The trainer's own loop, encoding in this process, at one BLAS thread."""
    trainer = Trainer(cfg, seed)
    with worker.one_blas_thread():
        return trainer.run(trainer.build_state())


def worker_run(cfg, seed, monkeypatch):
    """``run_experiment`` and the main process's final state."""
    states, build = [], Trainer.build_state

    def kept(self):
        states.append(build(self))
        return states[-1]

    monkeypatch.setattr(Trainer, "build_state", kept)
    return run_experiment(cfg, seed), states[0]


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pyramid_cfg(tmp_path, seed):
    """TINY without augmentation, reading the live encoder's pyramid from a file."""
    cfg = parse_config_text(TINY, {"stream.augment": "none"})
    state = Trainer(cfg, seed).build_state()
    tasks = state.stream.tasks
    xs = np.concatenate([np.concatenate([t.train.xs, t.test.xs]) for t in tasks])
    idx = np.concatenate([np.concatenate([t.train.indices, t.test.indices]) for t in tasks])
    with T.no_grad():
        pyramid = state.encoder.extract(Tensor(xs[np.argsort(idx)]))
    save_pyramid_file(tmp_path / "stream.pyr", [level.data for level in pyramid])
    cfg.encoder.pyramid_file = str(tmp_path / "stream.pyr")
    return cfg


@needs_worker
class TestWorkerRun:
    @pytest.mark.parametrize("overrides, main_encodes", [
        ({}, False),
        (TF, False),
        ({"stream.augment_ops": "crop_pad,hflip", "stream.augment": "all"}, False),
        (HEAD_ONLY, True),
        ({**HEAD_ONLY, "train.inner_updates": "1"}, True),
        (None, False),
    ], ids=["csd", "tf", "flip_all", "standard", "standard_one_update", "stored_pyramid"])
    def test_bytes_equal_the_inline_loop(self, overrides, main_encodes, monkeypatch, tmp_path):
        cfg = pyramid_cfg(tmp_path, 4) if overrides is None else parse_config_text(TINY, overrides)
        calls, apply_draws = [], trainer_module.apply_draws
        monkeypatch.setattr(trainer_module, "apply_draws",
                            lambda *args: calls.append(1) or apply_draws(*args))
        inline = inline_run(cfg, 4)
        inline_calls = len(calls)
        result, state = worker_run(cfg, 4, monkeypatch)
        assert result.feature_worker == "1" and result.blas_threads == 1
        # a full classifier's memo lived in the worker; a head-only run's main
        # process encodes its own share through its own memo
        assert (len(state.features.entries) > 0) == main_encodes
        assert len(inline.features.entries) > 0
        # pixels are made only where rows are encoded: the worker's calls are
        # its own, and the main process makes those of its share only
        main_calls = len(calls) - inline_calls
        assert inline_calls > 0
        assert 0 < main_calls < inline_calls if main_encodes else main_calls == 0
        assert result.matrix.csv_lines() == inline.matrix.csv_lines()
        assert state_fingerprint(state) == state_fingerprint(inline)
        assert_no_child()

    def test_one_usable_cpu_encodes_inline(self, monkeypatch):
        cfg = parse_config_text(TINY)
        forked = run_experiment(cfg, 5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        inline = run_experiment(cfg, 5)
        assert (forked.feature_worker, inline.feature_worker) == ("1", "0 (one usable CPU)")
        assert inline.matrix.csv_lines() == forked.matrix.csv_lines()

    def test_a_worker_error_reaches_the_main_process(self, monkeypatch):
        # an exception in the worker's encoder is re-raised here, one in the
        # main process's share of the rows is raised here; no child is left
        encode = trainer_module._encode

        def check(cfg, refuses):
            def refused(encoder, cfg, xs, indices):
                if refuses(indices):
                    raise InvalidConfig("the encoder refused")
                return encode(encoder, cfg, xs, indices)

            with monkeypatch.context() as patch:
                patch.setattr(trainer_module, "_encode", refused)
                with pytest.raises(InvalidConfig, match="the encoder refused"):
                    run_experiment(cfg, 0)
            assert_no_child()

        check(parse_config_text(TINY), lambda indices: True)
        # head-only, only the first stream batch is refused: request 0, the
        # worker's share; then only the second: request 1, the main's share
        head_only = parse_config_text(TINY, HEAD_ONLY)
        first, second = list(Trainer(head_only, 0).build_state().stream.train_batches(0, 10))[:2]
        check(head_only, lambda indices: np.array_equal(indices, first.indices))
        check(head_only, lambda indices: np.array_equal(indices, second.indices))

    @pytest.mark.parametrize("cpus", [None, {0}], ids=["worker", "inline"])
    def test_a_drifting_encoder_fails_the_run(self, cpus, monkeypatch):
        # the first encoder call of each process that ``bumps`` bumps a frozen
        # kernel in place; a run must check the kernels of every process that
        # encoded: the worker's, and the main's where it encoded
        features, main = MultiScaleEncoder.features, os.getpid()

        def check(cfg, bumps, match):
            bumped = []

            def drifting(enc, x, mode, indices=None):
                if not bumped and bumps():
                    enc.stages[0].data.flat[0] += 1.0
                    bumped.append(True)
                return features(enc, x, mode, indices=indices)

            with monkeypatch.context() as patch:
                patch.setattr(MultiScaleEncoder, "features", drifting)
                with pytest.raises(RuntimeError, match=match):
                    run_experiment(cfg, 0)
            assert_no_child()
            return bumped

        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        bumped = check(parse_config_text(TINY), lambda: True, "frozen encoder's kernels changed")
        assert bool(bumped) == (cpus is not None)  # a full classifier's main never encodes
        if cpus is None:  # head-only, only the main process's share drifts
            bumped = check(parse_config_text(TINY, HEAD_ONLY), lambda: os.getpid() == main,
                           "^the frozen encoder's kernels changed during the run$")
            assert bumped


@pytest.mark.parametrize("sizes", [(10, 64, 64), (10, 64), (64, 10)],
                         ids=["two_updates", "one_update", "replay_first"])
def test_workers_share_the_rows_evenly(sizes):
    # a head-only batch asks for its stream rows, then for one replay draw per
    # inner update: with two requests a batch, turns by request count would
    # give one share every stream request and the other every replay draw
    load = [0, 0]
    turns = [worker._turn(load, rows) for rows in sizes * 50]
    assert turns[:2] == [0, 1]
    assert abs(load[0] - load[1]) <= max(sizes)


@pytest.mark.parametrize("overrides", [{}, TF], ids=["csd", "tf"])
def test_run_and_data_side_ask_for_rows_in_one_order(overrides):
    # the pipe's protocol: the worker's data side must ask state.features for
    # the rows that the main process's model side asks for, in its order
    trainer = Trainer(parse_config_text(TINY, overrides), 4)

    def recorded(state):
        requests, features = [], state.features

        def asked(xs, indices, draws=None):
            requests.append((len(xs), draws is None))
            return features(xs, indices, draws)

        state.features = asked
        return requests

    state = trainer.build_state()
    model_side = recorded(state)
    trainer.run(state)
    fresh = trainer.build_state()
    data_side = recorded(fresh)
    trainer.data_side(fresh)
    assert model_side == data_side
    assert {test_rows for _, test_rows in model_side} == {True, False}


@needs_worker
class TestPipeFailure:
    def test_a_worker_that_ends_early_fails_the_run(self, monkeypatch):
        monkeypatch.setattr(Trainer, "data_side", lambda self, state: None)
        with pytest.raises(RuntimeError, match="^the feature worker ended before the run did$"):
            run_experiment(parse_config_text(TINY), 0)
        assert_no_child()

    def test_a_frame_of_the_wrong_row_count_fails_the_run(self, monkeypatch):
        write = worker.FeatureWriter.write
        monkeypatch.setattr(worker.FeatureWriter, "write", lambda w, rows: write(w, rows[:-1]))
        with pytest.raises(RuntimeError, match="sent 9 rows where the run needs 10"):
            run_experiment(parse_config_text(TINY), 0)
        assert_no_child()

    def test_a_failed_fork_encodes_inline(self, monkeypatch, tmp_path):
        # the only fork fails, for a full or a head-only classifier: the run
        # encodes inline
        def check(text, name):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            forks = []

            def run(out):
                assert main(["run", "--config", str(cfg), "--out", str(out), "--seeds", "3"]) == 0
                return out

            def failing():
                forks.append(1)
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

            forked = run(tmp_path / f"forked_{name}")
            with monkeypatch.context() as patch:
                patch.setattr(os, "fork", failing)
                inline = run(tmp_path / f"inline_{name}")
            assert len(forks) == 1
            manifest = (inline / "manifest.txt").read_text()
            assert re.search(r"^feature_worker = 0 \(fork failed: .+\)$", manifest, re.M), manifest
            assert "feature_worker = 1\n" in (forked / "manifest.txt").read_text()
            for name in ("matrix_3.csv", "metrics.txt"):
                assert (inline / name).read_bytes() == (forked / name).read_bytes()
            assert_no_child()

        check(TINY, "full")
        check(TINY.replace("[encoder]\n", "[encoder]\naggregate_mode = standard\n"), "head_only")


def test_one_blas_thread_restores_the_count():
    calls = worker._blas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread control is loaded")
    get, _ = calls
    before = get()
    with worker.one_blas_thread() as threads:
        assert threads == get() == 1
    assert get() == before


# taskfree_long with 4 tasks: at seed 7 its final classifier state differed
# between OPENBLAS_NUM_THREADS=1 and 2 while runs used the BLAS threads they
# were started with
TASKFREE = """
[stream]
tasks = 4
samples_per_task = 40
[loss]
distill_variant = tf
new_task_classes = 2
[replay]
policy = reservoir
"""

FINGERPRINTED_RUN = """
import sys
from streamcl import cli
from streamcl.trainer import Trainer, state_fingerprint

fingerprints, evaluate = [], Trainer.evaluate

def recorded(self, state, upto_task):
    row = evaluate(self, state, upto_task)
    fingerprints.append(state_fingerprint(state))
    return row

Trainer.evaluate = recorded
rc = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2], "--seeds", "7"])
print(fingerprints[-1])
sys.exit(rc)
"""


def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TASKFREE)
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", FINGERPRINTED_RUN, str(cfg), str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[threads] = (proc.stdout.split()[-1], (out / "matrix_7.csv").read_bytes(),
                         (out / "metrics.txt").read_bytes())
    assert runs["1"] == runs["2"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_run_exits_1_and_leaves_no_child(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[stream]\nsamples_per_task = 60\n[train]\nlr = 1000\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--seeds", "0"]) == 1
    assert_no_child()


def children(pid):
    """Pids of the processes whose parent is ``pid``: from
    ``/proc/<pid>/task/*/children``, or from every ``/proc/<n>/stat`` where
    the kernel keeps no such list."""
    lists = list(Path(f"/proc/{pid}/task").glob("*/children"))
    if lists:
        return sorted({int(p) for f in lists for p in f.read_text().split()})
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # ended while listed
            continue
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return sorted(kids)


def running(pid):
    """Whether ``pid`` exists and has not exited (a zombie has)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


@needs_worker
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_killed_run_leaves_no_worker(tmp_path):
    # the one worker must see its pipe close when the main process dies, for
    # a full and a head-only classifier
    def check(text, name):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from streamcl.cli import main; sys.exit(main())",
             "run", "--config", str(cfg), "--out", str(tmp_path / f"out_{name}"), "--seeds", "0"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline, kids = time.monotonic() + 60, []
            while not kids and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                kids = children(proc.pid)
            assert kids, "no feature worker appeared"
            time.sleep(0.5)  # into training
            kids = sorted(set(kids) | set(children(proc.pid)))
            assert proc.poll() is None
            assert len(kids) == 1
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            deadline = time.monotonic() + 5
            while any(running(k) for k in kids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(running(k) for k in kids)
        finally:
            proc.kill()
            proc.wait()

    check("[stream]\nsamples_per_task = 200\n", "full")
    check("[stream]\nsamples_per_task = 600\n[encoder]\naggregate_mode = standard\n", "head_only")
