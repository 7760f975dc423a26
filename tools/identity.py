"""Record or check the byte identity of a checkout's deterministic outputs.

Run from the root of a checkout::

    python3 tools/identity.py            # write IDENTITY.json
    python3 tools/identity.py --check    # rerun every entry against IDENTITY.json

``IDENTITY.json`` holds numpy's version and BLAS build, and one sha256 per
entry:

- ``perfbench.<workload>``: perfbench's bundle digest (each matrix file's
  name, a NUL and its bytes, in seed order, then ``metrics.txt``, as
  ``perfbench/run.py`` hashes a bundle) of each benchmark workload at seed 7
- ``default_seed0.<file>``: ``matrix_0.csv`` and ``metrics.txt`` of the
  default config's seed 0
- ``arena``: one digest over the 20 matrices of the criterion-7 arena
  (``tests/test_acceptance.py``), each matrix's CSV lines in run order
- ``tiny_seed4.<variant>.state_fingerprint`` and ``.matrix``: test_worker's
  TINY config at seed 4, run through ``Trainer.run`` in this process at one
  BLAS thread, for the variants of its worker test

``--check`` reruns every entry and names each one that differs (exit 1). It
refuses to compare against a file made with another numpy or BLAS build
(exit 2), because the bytes depend on OpenBLAS's kernel choice. A change that
means to move bytes rewrites the file and lists the entries that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
import time
from pathlib import Path

SEED = 7
ARENA_RUNS = (  # the criterion-7 arena fixture's four runs: (replay, loss, encoder)
    ("enabled = false", "distill_variant = none\nlambda_dctn = 0", ""),
    ("", "distill_variant = none\nlambda_dctn = 0", ""),
    ("", "lambda_dctn = 0", ""),
    ("", "distill_variant = none\nlambda_dctn = 0", "aggregate_mode = standard"),
)
TINY_VARIANTS = {  # test_worker's worker-run variants; None reads a stored pyramid
    "csd": {},
    "tf": {"loss.distill_variant": "tf", "loss.new_task_classes": "2",
           "loss.samples_per_class": "2", "replay.policy": "reservoir"},
    "flip_all": {"stream.augment_ops": "crop_pad,hflip", "stream.augment": "all"},
    "standard": {"encoder.aggregate_mode": "standard"},
    "stored_pyramid": None,
}


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def entries(root, perfbench, tmp):
    """Yield (name, sha256) of every entry, computed with the checkout ``root``."""
    from streamcl import cli

    for workload, count in perfbench.WORKLOADS.items():
        cfg_path = root / "perfbench" / "workloads" / f"{workload}.cfg"
        seeds = [SEED + i for i in range(count)]
        out = tmp / workload
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                           "--seeds", ",".join(map(str, seeds))])
        if rc != 0:
            raise SystemExit(f"{workload}: streamcl run exited {rc}")
        tasks = cli.parse_config(str(cfg_path)).stream.tasks
        yield f"perfbench.{workload}", perfbench.check_bundle(out, seeds, tasks)[0]

    out = tmp / "default"
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["run", "--seeds", "0", "--out", str(out)]) != 0:
            raise SystemExit("default config: streamcl run exited non-zero")
    for name in ("matrix_0.csv", "metrics.txt"):
        yield f"default_seed0.{name}", _sha((out / name).read_bytes())

    sys.path.insert(0, str(root / "tests"))
    acceptance = _load(root / "tests" / "test_acceptance.py", "identity_acceptance")
    worker_tests = _load(root / "tests" / "test_worker.py", "identity_worker")
    from streamcl.config import parse_config_text
    from streamcl.trainer import run_experiment, state_fingerprint

    arena = hashlib.sha256()
    for replay, loss, encoder in ARENA_RUNS:
        cfg_text = acceptance.ARENA.format(replay=replay, loss=loss, encoder=encoder)
        for seed in acceptance.SEEDS:
            result = run_experiment(parse_config_text(cfg_text), seed)
            arena.update(("\n".join(result.matrix.csv_lines()) + "\n").encode())
    yield "arena", arena.hexdigest()

    for variant, overrides in TINY_VARIANTS.items():
        cfg = (worker_tests.pyramid_cfg(tmp, 4) if overrides is None
               else parse_config_text(worker_tests.TINY, overrides))
        state = worker_tests.inline_run(cfg, 4)
        yield f"tiny_seed4.{variant}.state_fingerprint", state_fingerprint(state)
        yield f"tiny_seed4.{variant}.matrix", _sha("\n".join(state.matrix.csv_lines()).encode())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=".", help="the checkout to run (default: here)")
    parser.add_argument("--file", default="IDENTITY.json", help="the identity file")
    parser.add_argument("--check", action="store_true",
                        help="compare with the file instead of writing it")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import streamcl

    if Path(streamcl.__file__).resolve().parent != root / "src" / "streamcl":
        raise SystemExit(f"streamcl was imported from {streamcl.__file__}, not {root}/src")
    path = Path(args.file)
    perfbench = _load(root / "perfbench" / "run.py", "perfbench_run")
    env = perfbench.environment(root)  # the numpy and BLAS build the bytes depend on
    here = {"numpy": env["numpy"], "blas": env["blas"]}
    recorded = json.loads(path.read_text()) if args.check else None
    if recorded is not None and recorded["build"] != here:
        print(f"refused: {path} was made with {recorded['build']}, this is {here}",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        got = {}
        for name, digest in entries(root, perfbench, Path(tmp)):
            got[name] = digest
            print(f"{name} {digest}", flush=True)
    seconds = time.perf_counter() - start
    print(f"{len(got)} entries in {seconds:.1f} s")
    if recorded is None:
        path.write_text(json.dumps({"build": here, "entries": got}, indent=1) + "\n")
        return 0
    differ = sorted(name for name in recorded["entries"].keys() | got.keys()
                    if recorded["entries"].get(name) != got.get(name))
    for name in differ:
        print(f"differs {name}: recorded {recorded['entries'].get(name)}, now {got.get(name)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
