"""Command-line front end.

Three commands: ``run`` executes the configured experiment over one or
more seeds and writes a result bundle; ``ablate`` sweeps one config key
over a list of values and tabulates ACC/FM/LA per value; ``check`` runs
the invariant suite.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from . import __version__, checks
from .config import ConfigError, parse_config, parse_config_text, serialize
from .tensor import InvalidConfig
from .trainer import Diverged, run_experiment

METRIC_NAMES = ("acc", "fm", "la")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _load_config(args, overrides=None):
    """``--config`` (the defaults when omitted), then ``overrides``, then ``--seeds``
    as ``train.seeds``."""
    overrides = dict(overrides or {})
    if args.seeds is not None:
        overrides["train.seeds"] = args.seeds
    return parse_config(args.config, overrides) if args.config else parse_config_text("", overrides)


def _run_seeds(cfg):
    return [run_experiment(cfg, s) for s in cfg.train.seeds]


_BUNDLE_FILES = ("matrix_*.csv", "metrics.txt", "manifest.txt", "ablation.csv")


def _is_bundle_entry(path):
    """A file that a bundle writes, or an ablate value's sub-bundle directory."""
    if os.path.isdir(path) and not os.path.islink(path):
        return os.path.isfile(os.path.join(path, "manifest.txt")) and all(
            _is_bundle_entry(os.path.join(path, name)) for name in os.listdir(path))
    return any(fnmatch.fnmatch(os.path.basename(path), p) for p in _BUNDLE_FILES)


@contextlib.contextmanager
def _staged_outdir(outdir, force):
    """Yield a stage inside ``outdir``; once the block succeeds its entries replace the old ones.

    A failure inside the block leaves ``outdir`` as it was: directories made
    for it are removed again. ``--force`` only replaces bundle entries, so an
    output directory holding others is refused.
    """
    made = []
    path = os.path.abspath(outdir)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {outdir}: {path} is not a directory")
    os.makedirs(outdir, exist_ok=True)
    old = [os.path.join(outdir, name) for name in sorted(os.listdir(outdir))]
    if old and not force:
        raise ConfigError(f"{outdir} is not empty; pass --force to overwrite")
    foreign = [path for path in old if not _is_bundle_entry(path)]
    if foreign:
        raise ConfigError(f"{foreign[0]} is not part of a result bundle; --force will not delete it")
    try:
        with tempfile.TemporaryDirectory(prefix=".streamcl-", dir=outdir) as stage:
            yield stage
            for path in old:
                if os.path.isdir(path) and not os.path.islink(path):
                    shutil.rmtree(path)
                else:
                    os.remove(path)
            for name in os.listdir(stage):
                os.rename(os.path.join(stage, name), os.path.join(outdir, name))
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _summary(results):
    """Each metric's (mean, ddof=1 std) over the seeds; the std is None for one seed."""
    out = {}
    for name in METRIC_NAMES:
        vals = np.array([r.metrics[name] for r in results])
        out[name] = (vals.mean(), vals.std(ddof=1) if len(vals) >= 2 else None)
    return out


def _metrics_record(results):
    lines = [f"seeds = {','.join(str(r.seed) for r in results)}"]
    for r in results:
        for name in METRIC_NAMES:
            lines.append(f"{name}_seed{r.seed} = {r.metrics[name]:.6f}")
    for name, (mean, std) in _summary(results).items():
        lines.append(f"{name}_mean = {mean:.6f}")
        if std is not None:
            lines.append(f"{name}_std = {std:.6f}")
    return "\n".join(lines) + "\n"


def _environment_record():
    """numpy and its BLAS, the BLAS thread variables and, on Linux, the peak
    resident set of the process so far (every earlier run of it included)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lines = [f"numpy = {np.__version__}",
             f"blas = {blas.get('name', '?')} {blas.get('version', '?')}"]
    lines += [f"{name} = {os.environ.get(name, 'unset')}" for name in THREAD_VARS]
    if sys.platform.startswith("linux"):
        import resource

        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        worker_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        lines += ["# peak_rss_mb: the process's peak so far (ru_maxrss)",
                  f"peak_rss_mb = {peak_kib / 1024:.1f}",
                  "# worker_peak_rss_mb: the largest peak of its ended children so far",
                  f"worker_peak_rss_mb = {worker_kib / 1024:.1f}"]
    return "\n".join(lines) + "\n"


def write_bundle(outdir, cfg, results, wall_time):
    for r in results:
        with open(os.path.join(outdir, f"matrix_{r.seed}.csv"), "w", encoding="ascii") as fh:
            fh.write("\n".join(r.matrix.csv_lines()) + "\n")
    with open(os.path.join(outdir, "metrics.txt"), "w", encoding="ascii") as fh:
        fh.write(_metrics_record(results))
    with open(os.path.join(outdir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"version = {__version__}\n")
        fh.write(f"seeds = {','.join(str(r.seed) for r in results)}\n")
        fh.write(f"wall_time_s = {wall_time:.3f}\n")
        fh.write(f"seed_wall_s = {','.join(f'{r.seed_wall_s:.3f}' for r in results)}\n")
        fh.write(f"feature_worker = {','.join(r.feature_worker for r in results)}\n")
        fh.write(f"blas_threads_set = "
                 f"{','.join(str(r.blas_threads or 'none') for r in results)}\n")
        fh.write(_environment_record())
        fh.write("\n# config echo\n")
        fh.write(serialize(cfg))


def cmd_run(args):
    start = time.time()
    cfg = _load_config(args)
    outdir = args.out or cfg.output.directory
    with _staged_outdir(outdir, args.force) as stage:
        results = _run_seeds(cfg)
        write_bundle(stage, cfg, results, time.time() - start)
    for r in results:
        print(f"seed {r.seed}: acc={r.metrics['acc']:.4f} fm={r.metrics['fm']:+.4f} "
              f"la={r.metrics['la']:.4f}")
    accs = [r.metrics["acc"] for r in results]
    print(f"wrote {outdir} (acc mean {np.mean(accs):.4f} over {len(results)} seed(s))")
    return 0


def cmd_ablate(args):
    if args.axis == "train.seeds" and args.seeds is not None:
        raise ConfigError("--seeds would override every value of --axis train.seeds")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    subdirs = [v.replace("/", "_") for v in values]
    for subdir in subdirs:
        if subdir in (".", "..", "ablation.csv") or subdirs.count(subdir) > 1:
            same = ", ".join(repr(v) for v, d in zip(values, subdirs) if d == subdir)
            raise ConfigError(f"--values {same}: each value needs a sub-directory of its own, "
                              f"not {subdir!r}")
    base = _load_config(args)
    cfgs = [_load_config(args, {args.axis: value}) for value in values]
    outdir = args.out or base.output.directory
    rows = []
    with _staged_outdir(outdir, args.force) as stage:
        for value, subdir, cfg in zip(values, subdirs, cfgs):
            start = time.time()
            results = _run_seeds(cfg)
            sub = os.path.join(stage, subdir)
            os.makedirs(sub, exist_ok=True)
            write_bundle(sub, cfg, results, time.time() - start)
            rows.append((value, _summary(results)))
        with open(os.path.join(stage, "ablation.csv"), "w", encoding="ascii") as fh:
            fh.write("value,acc_mean,acc_std,fm_mean,fm_std,la_mean,la_std\n")
            for value, summary in rows:
                cells = [value]
                for mean, std in summary.values():
                    cells += [f"{mean:.6f}", "" if std is None else f"{std:.6f}"]
                fh.write(",".join(cells) + "\n")
    for value, summary in rows:
        print(f"{args.axis}={value}: acc={summary['acc'][0]:.4f} "
              f"fm={summary['fm'][0]:+.4f} la={summary['la'][0]:.4f}")
    print(f"wrote {os.path.join(outdir, 'ablation.csv')}")
    return 0


def cmd_check(args):
    results = checks.run_all(inject_fault=args.inject_fault)
    failed = 0
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        failed += 0 if passed else 1
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="streamcl",
        description="Seeded online continual-learning experiments on synthetic task streams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment over seeds")
    p_run.add_argument("--config", help="config file (defaults apply when omitted)")
    p_run.add_argument("--seeds", help="comma-separated seed list overriding the config")
    p_run.add_argument("--out", help="output directory (default from config)")
    p_run.add_argument("--force", action="store_true", help="allow writing into a non-empty directory")
    p_run.set_defaults(fn=cmd_run)

    p_ab = sub.add_parser("ablate", help="sweep one config key over values")
    p_ab.add_argument("--config", help="base config file")
    p_ab.add_argument("--axis", required=True, help="config key path, e.g. model.norm_kind")
    p_ab.add_argument("--values", required=True, help="comma-separated values for the axis")
    p_ab.add_argument("--seeds", help="comma-separated seed list overriding the config")
    p_ab.add_argument("--out", help="output directory (default from config)")
    p_ab.add_argument("--force", action="store_true")
    p_ab.set_defaults(fn=cmd_ablate)

    p_ck = sub.add_parser("check", help="run the invariant suite")
    p_ck.add_argument("--inject-fault", action="store_true",
                      help="negative control: add a mis-scaled backward rule; gradients must FAIL")
    p_ck.set_defaults(fn=cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InvalidConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Diverged as exc:
        print(f"error: {exc}; try a smaller train.lr", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
