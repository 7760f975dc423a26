"""The benchmark's traced run looks up streamcl names by attribute.

``perfbench/instrument.py`` re-binds functions and methods on the modules
and classes it traces, so renaming or deleting any of them under ``src/``
breaks the benchmark. Building the bindings resolves every name without
installing anything, so the break shows up here. Installing them around one
call of each norm class shows that every class's calls are traced, including
the kinds that inherit ``__call__``, and that each method comes back on exit.
"""

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
