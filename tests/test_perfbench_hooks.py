"""The benchmark's traced run looks up streamcl names by attribute.

``perfbench/instrument.py`` re-binds functions and methods on the modules
and classes it traces, so renaming or deleting any of them under ``src/``
breaks the benchmark. Building the bindings resolves every name without
installing anything, so the break shows up here. Installing them around one
call of each norm class shows that every class's calls are traced, including
the kinds that inherit ``__call__``, and that each method comes back on exit.
One traced run in a child interpreter shows that the wrapped calls still fit
the signatures under ``src/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import streamcl.norms as norms
from streamcl.tensor import Tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from instrument import Tracer
    from spans import SpanRecorder

    bindings = Tracer(SpanRecorder()).bindings()
    assert bindings
    for owner, attr, _ in bindings:
        assert hasattr(owner, attr), (owner, attr)


def test_norm_spans_recorded_and_calls_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from instrument import Tracer
    from spans import SpanRecorder

    classes = (norms.BatchNorm, norms.InstanceNorm, norms.LayerNorm, norms.GroupNorm,
               norms.BlendedSpatialNorm, norms.SwitchableNorm, norms.ContinualNorm,
               norms.SplitParallelNorm)
    before = {cls: cls.__call__ for cls in classes}
    layers = [norms.make_norm(kind, 4, groups=2) for kind in norms.NORM_KINDS]
    layers.append(norms.BlendedSpatialNorm(4))
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4, 2, 2)))
    rec = SpanRecorder()
    with Tracer(rec).installed():
        for layer in layers:
            first = len(rec.spans)
            layer(x)
            assert "norms.forward" in {s.name for s in rec.spans[first:]}, layer.kind
    assert {type(layer) for layer in layers} == set(classes)
    for cls in classes:
        assert cls.__call__ is before[cls], cls


TRACED_CSD = """
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
distill_variant = csd
n_per_task = 5
[train]
batch = 10
"""


def test_traced_run_completes(tmp_path):
    # the traced benchmark calls through every bound name with the real
    # signatures, so a changed call under src/ fails here, not only there
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TRACED_CSD)
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--root", str(PERFBENCH.parent),
         "--result", str(result), "--trace", "--",
         "--config", str(cfg), "--out", str(tmp_path / "out"), "--seeds", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text())["layers"]
    assert layers["trainer.train_task.self_s"][0] > 0
    assert layers["losses.build_tuple_set.total_s"][0] > 0
