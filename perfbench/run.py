"""End-to-end and per-layer benchmark of ``streamcl run``.

Run from the root of a checkout (the directory holding ``src/streamcl``)::

    python3 perfbench/run.py --workload er_csd_topdown --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 38 --trace 0

``--trace 0`` repeats untraced ``streamcl run`` invocations for about
``--seconds`` and reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics. Every
invocation's bundle is checked. ``--workload all`` runs each workload in
turn and prints one table. The last line of standard output is always one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

# workload name -> number of consecutive experiment seeds in one invocation
WORKLOADS = {
    "er_csd_topdown": 1,
    "er_standard_2seed": 2,
    "taskfree_long": 1,
}
MIN_INVOCATIONS = 3
MIN_BATCHES = 100  # p90 needs 10 samples beyond it
SETUP_PER_ROUND = 3  # set-ups timed before each untraced invocation
DEADLINE_S = 160.0  # a benchmark run must end well inside 180 s
METRIC_TOL = 2e-6  # csv entries and metrics.txt both carry 6 decimals
NORM_KINDS = ("bn", "in", "ln", "gn", "sn", "cn", "spn")
NORM_REPEATS = 20
DEFAULT_NORM_SHAPE = (64, 16, 8, 8)  # replay forward of the default config
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BundleError(Exception):
    """A result bundle is missing, malformed or inconsistent."""


# pure parts ------------------------------------------------------------------

def tail_percentile(n, min_tail=10):
    """Highest whole percentile with at least ``min_tail`` of ``n`` samples
    strictly above its nearest-rank position, or None."""
    for p in range(99, 0, -1):
        if n - (-(-p * n // 100)) >= min_tail:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


def reference_metrics(rows):
    """ACC, FM and LA of a lower-triangular accuracy matrix, as loops."""
    t = len(rows)
    acc = sum(rows[-1]) / t
    la = sum(rows[i][i] for i in range(t)) / t
    gaps = [max(rows[i][j] for i in range(j, t - 1)) - rows[-1][j] for j in range(t - 1)]
    fm = sum(gaps) / len(gaps) if gaps else 0.0
    return {"acc": acc, "fm": fm, "la": la}


def read_matrix(path, tasks):
    try:
        lines = path.read_text(encoding="ascii").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise BundleError(f"{path.name}: {exc}") from None
    if len(lines) != tasks:
        raise BundleError(f"{path.name}: {len(lines)} rows, expected {tasks}")
    rows = []
    for i, line in enumerate(lines):
        try:
            row = [float(c) for c in line.split(",")]
        except ValueError:
            raise BundleError(f"{path.name} row {i}: not numbers: {line!r}") from None
        if len(row) != i + 1 or not all(0.0 <= v <= 1.0 for v in row):
            raise BundleError(f"{path.name} row {i}: need {i + 1} entries in [0,1]: {line!r}")
        rows.append(row)
    return rows


def read_metrics(path):
    try:
        text = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise BundleError(f"{path.name}: {exc}") from None
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise BundleError(f"{path.name}: cannot parse {line!r}")
        out[key] = value
    return out


def check_bundle(outdir, seeds, tasks):
    """Validate a ``run`` bundle; return (sha256, mean acc, mean fm)."""
    digest = hashlib.sha256()
    per_seed = {}
    for s in seeds:
        path = outdir / f"matrix_{s}.csv"
        per_seed[s] = reference_metrics(read_matrix(path, tasks))
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    metrics_path = outdir / "metrics.txt"
    recorded = read_metrics(metrics_path)
    digest.update(metrics_path.name.encode() + b"\0" + metrics_path.read_bytes())
    if recorded.get("seeds") != ",".join(str(s) for s in seeds):
        raise BundleError(f"metrics.txt seeds {recorded.get('seeds')!r}, expected {seeds}")
    expected = {}
    for name in ("acc", "fm", "la"):
        vals = [per_seed[s][name] for s in seeds]
        expected.update({f"{name}_seed{s}": v for s, v in zip(seeds, vals)})
        expected[f"{name}_mean"] = statistics.fmean(vals)
        if len(vals) >= 2:
            expected[f"{name}_std"] = statistics.stdev(vals)
    for key, want in expected.items():
        try:
            got = float(recorded[key])
        except (KeyError, ValueError):
            raise BundleError(f"metrics.txt lacks a number for {key}") from None
        if not abs(got - want) <= METRIC_TOL:
            raise BundleError(f"metrics.txt {key} = {got}, the matrix gives {want:.6f}")
    return digest.hexdigest(), expected["acc_mean"], expected["fm_mean"]


# environment -------------------------------------------------------------------

def git_commit(root):
    """HEAD of ``root/.git`` read from its files (no git process), or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "MUFAN_THREADS": os.environ.get("MUFAN_THREADS"),
        "commit": git_commit(root),
        "src_sha256": src.hexdigest(),
    }


# measurement -------------------------------------------------------------------

def time_setup(cfg_path, seeds, repeats):
    """Config file to ready training state: parse, generate the stream, draw
    the frozen encoder, initialise the classifier, once per seed."""
    from streamcl.config import parse_config
    from streamcl.trainer import Trainer

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        cfg = parse_config(str(cfg_path))
        for s in seeds:
            Trainer(cfg, s).build_state()
        times.append(time.perf_counter() - t0)
    return times


def norm_fwd_bwd_ms(kind, shape, repeats=NORM_REPEATS):
    """Median milliseconds of one training-mode forward plus backward."""
    import numpy as np
    from streamcl.norms import make_norm
    from streamcl.tensor import Tensor, sum_

    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    w = Tensor(rng.normal(size=shape))
    layer = make_norm(kind, shape[1], groups=2)
    times = []
    for _ in range(repeats + 2):
        x.grad = None
        for p in layer.params():
            p.grad = None
        t0 = time.perf_counter()
        sum_(layer(x) * w).backward()
        times.append(time.perf_counter() - t0)
    return statistics.median(times[2:]) * 1e3


class Invocation:
    """One ``streamcl run`` in a fresh interpreter, timed from outside."""

    def __init__(self, root, workdir, cfg_path, seeds, tasks):
        self.root, self.workdir = root, workdir
        self.cfg_path, self.seeds, self.tasks = cfg_path, seeds, tasks
        self.count = 0

    def __call__(self, trace, timeout):
        self.count += 1
        out = self.workdir / f"run{self.count}"
        result_path = self.workdir / f"result{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(self.root),
               "--result", str(result_path)] + (["--trace"] if trace else []) + [
               "--", "--config", str(self.cfg_path), "--out", str(out),
               "--seeds", ",".join(str(s) for s in self.seeds)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                  timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            raise BundleError(f"invocation exceeded {timeout:.0f} s") from None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BundleError(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise BundleError(f"no result from the invocation: {exc}") from None
        sha, acc, fm = check_bundle(out, self.seeds, self.tasks)
        shutil.rmtree(out)
        result_path.unlink()
        return {"wall_s": wall, "sha256": sha, "acc": acc, "fm": fm, **result}


def run_workload(root, name, seed, seconds, trace, deadline):
    """Measure one workload; returns the result object and an info dict."""
    from streamcl.config import parse_config

    cfg_path = HERE / "workloads" / f"{name}.cfg"
    seeds = tuple(seed + i for i in range(WORKLOADS[name]))
    cfg = parse_config(str(cfg_path))
    tasks = cfg.stream.tasks
    batches = len(seeds) * tasks * -(-cfg.stream.samples_per_task // cfg.train.batch)
    done, errors, setup = [], [], []

    def sample_setup(repeats):
        try:
            return time_setup(cfg_path, seeds, repeats)
        except Exception:  # a broken program is a failed run, reported below
            errors.append("set-up raised:\n" + traceback.format_exc())
            return []

    if not trace:
        sample_setup(1)  # the first set-up pays one-off import and cache costs
    scratch = root / ".perfbench_runs"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch))
    invoke = Invocation(root, workdir, cfg_path, seeds, tasks)
    # a round is one untraced invocation, or one untraced and one traced
    plan = (False, True) if trace else (False,)
    min_rounds = 1 if trace else max(MIN_INVOCATIONS, -(-MIN_BATCHES // batches))
    start = time.perf_counter()
    try:
        while not errors:
            elapsed = time.perf_counter() - start
            rounds = len(done) // len(plan)
            if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
                break
            if not trace:  # spread over the run, so set-up sees the same machine
                setup += sample_setup(SETUP_PER_ROUND)
            for traced in plan:
                if errors:
                    break
                left = deadline - time.monotonic()
                try:
                    if left < 5:
                        raise BundleError("out of time before the invocation started")
                    done.append({"traced": traced, **invoke(traced, left)})
                except BundleError as exc:
                    errors.append(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for r in done[1:]:
        if r["sha256"] != done[0]["sha256"]:
            errors.append(f"bundle sha256 {r['sha256']} differs from {done[0]['sha256']}")
    failed = len(errors)
    info = {"workload": name, "seeds": seeds, "attempted": len(done) + failed,
            "failed": failed, "errors": errors,
            "walls_s": [round(r["wall_s"], 3) for r in done],
            "sha256": done[0]["sha256"] if done else None,
            "acc": done[0]["acc"] if done else None, "fm": done[0]["fm"] if done else None}
    plain = [r for r in done if not r["traced"]]
    if trace:
        traced = [r for r in done if r["traced"]]
        metrics = per_layer(traced, plain, info)
    else:
        metrics = end_to_end(plain, setup, info)
    result = {"correct": not errors and bool(done), "attempted": info["attempted"],
              "failed": failed, "metrics": metrics}
    return result, info


def end_to_end(runs, setup, info):
    latencies = [x for r in runs for x in r["latencies_s"]]
    info["batches"] = len(latencies)
    info["tail_percentile"] = tail_percentile(len(latencies))
    if not runs or not setup or (info["tail_percentile"] or 0) < 90:
        info["errors"].append(f"{len(latencies)} batch latencies; p90 needs at least 100")
        return {}
    values = {
        "wall_s": (statistics.median([r["wall_s"] for r in runs]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "batch_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "batch_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median([r["maxrss_kb"] / 1024 for r in runs]), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(traced, plain, info):
    if not traced or not plain:
        return {}
    values = {}
    for key, (_, unit) in traced[0]["layers"].items():
        values[key] = (statistics.median([r["layers"][key][0] for r in traced]), unit)
    traced_wall = statistics.median([r["wall_s"] for r in traced])
    values["trace.overhead_share"] = (
        traced_wall / statistics.median([r["wall_s"] for r in plain]) - 1, "ratio")
    shape = tuple(traced[0]["norm_shape"] or DEFAULT_NORM_SHAPE)
    info["norm_shape"] = shape
    for kind in NORM_KINDS:
        values[f"norms.{kind}.fwd_bwd_ms"] = (norm_fwd_bwd_ms(kind, shape), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# command line ------------------------------------------------------------------

def _import_streamcl(root):
    src = root / "src"
    if not (src / "streamcl" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/streamcl not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import streamcl

    if Path(streamcl.__file__).resolve().parent != (src / "streamcl").resolve():
        raise SystemExit(f"error: streamcl imported from {streamcl.__file__}, not {src}")


def _print_info(info):
    line = {k: info.get(k) for k in ("workload", "seeds", "attempted", "failed", "sha256",
                                     "acc", "fm", "walls_s", "batches", "tail_percentile",
                                     "norm_shape")
            if k in info}
    print("info " + json.dumps(line))
    for err in info["errors"]:
        print(f"error {info['workload']}: {err}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)
    root = Path.cwd().resolve()
    _import_streamcl(root)
    print("env " + json.dumps(environment(root)))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results, infos = {}, {}
    for name in names:
        results[name], infos[name] = run_workload(root, name, args.seed, args.seconds,
                                                  bool(args.trace), deadline)
        _print_info(infos[name])
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(f"{'workload':<20} {'metric':<38} {'value':>14} unit")
    for name, result in results.items():
        info = infos[name]
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        if info["acc"] is not None:
            rows += [("acc", info["acc"], "ratio"), ("fm", info["fm"], "ratio")]
        for key, value, unit in rows:
            print(f"{name:<20} {key:<38} {value:>14.6g} {unit}")
        print(f"{name:<20} {'runs_failed of runs_attempted':<38} "
              f"{result['failed']:>7} of {result['attempted']}")
        print(f"{name:<20} {'sha256 of matrices and metrics.txt':<38} {info['sha256']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
