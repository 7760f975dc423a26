"""The benchmark's traced run looks up streamcl names by attribute.

``perfbench/instrument.py`` re-binds functions and methods on the modules
and classes it traces, so renaming or deleting any of them under ``src/``
breaks the benchmark. Building the bindings resolves every name without
installing anything, so the break shows up here.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from instrument import Tracer
    from spans import SpanRecorder

    bindings = Tracer(SpanRecorder()).bindings()
    assert bindings
    for owner, attr, _ in bindings:
        assert hasattr(owner, attr), (owner, attr)
