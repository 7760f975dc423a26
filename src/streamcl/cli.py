"""Command-line front end.

Three commands: ``run`` executes the configured experiment over one or
more seeds and writes a result bundle; ``ablate`` sweeps one config key
over a list of values and tabulates ACC/FM/LA per value; ``check`` runs
the invariant suite. Seeds may execute in parallel worker threads, capped
by the MUFAN_THREADS environment variable (default 1).
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
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, checks
from .config import ConfigError, parse_config, parse_config_text, serialize
from .tensor import InvalidConfig
from .trainer import Diverged, run_experiment

METRIC_NAMES = ("acc", "fm", "la")


def _load_config(path, overrides=None):
    return parse_config(path, overrides) if path else parse_config_text("", overrides)


def _thread_cap():
    raw = os.environ.get("MUFAN_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"MUFAN_THREADS must be an integer, got {raw!r}")


def _run_seeds(cfg, seeds):
    workers = min(_thread_cap(), len(seeds))
    if workers == 1:
        return [run_experiment(cfg, s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda s: run_experiment(cfg, s), seeds))


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

    A failure inside the block leaves ``outdir`` as it was. ``--force`` only
    replaces bundle entries, so an output directory holding others is refused.
    """
    os.makedirs(outdir, exist_ok=True)
    old = [os.path.join(outdir, name) for name in sorted(os.listdir(outdir))]
    if old and not force:
        raise ConfigError(f"{outdir} is not empty; pass --force to overwrite")
    foreign = [path for path in old if not _is_bundle_entry(path)]
    if foreign:
        raise ConfigError(f"{foreign[0]} is not part of a result bundle; --force will not delete it")
    with tempfile.TemporaryDirectory(prefix=".streamcl-", dir=outdir) as stage:
        yield stage
        for path in old:
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
        for name in os.listdir(stage):
            os.rename(os.path.join(stage, name), os.path.join(outdir, name))


def _metrics_record(results):
    lines = [f"seeds = {','.join(str(r.seed) for r in results)}"]
    for r in results:
        for name in METRIC_NAMES:
            lines.append(f"{name}_seed{r.seed} = {r.metrics[name]:.6f}")
    for name in METRIC_NAMES:
        vals = np.array([r.metrics[name] for r in results])
        lines.append(f"{name}_mean = {vals.mean():.6f}")
        if len(vals) >= 2:
            lines.append(f"{name}_std = {vals.std(ddof=1):.6f}")
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
        fh.write("\n# config echo\n")
        fh.write(serialize(cfg))


def cmd_run(args):
    start = time.time()
    cfg = _load_config(args.config)
    seeds = _parse_seeds(args.seeds) if args.seeds else cfg.train.seeds
    outdir = args.out or cfg.output.directory
    with _staged_outdir(outdir, args.force) as stage:
        results = _run_seeds(cfg, seeds)
        write_bundle(stage, cfg, results, time.time() - start)
    for r in results:
        print(f"seed {r.seed}: acc={r.metrics['acc']:.4f} fm={r.metrics['fm']:+.4f} "
              f"la={r.metrics['la']:.4f}")
    accs = [r.metrics["acc"] for r in results]
    print(f"wrote {outdir} (acc mean {np.mean(accs):.4f} over {len(seeds)} seed(s))")
    return 0


def cmd_ablate(args):
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    seeds = _parse_seeds(args.seeds) if args.seeds else None
    base = _load_config(args.config)
    outdir = args.out or base.output.directory
    rows = []
    with _staged_outdir(outdir, args.force) as stage:
        for value in values:
            start = time.time()
            cfg = _load_config(args.config, {args.axis: value})
            results = _run_seeds(cfg, seeds or cfg.train.seeds)
            sub = os.path.join(stage, value.replace("/", "_"))
            os.makedirs(sub, exist_ok=True)
            write_bundle(sub, cfg, results, time.time() - start)
            row = {"value": value}
            for name in METRIC_NAMES:
                vals = np.array([r.metrics[name] for r in results])
                row[f"{name}_mean"] = vals.mean()
                row[f"{name}_std"] = vals.std(ddof=1) if len(vals) >= 2 else float("nan")
            rows.append(row)
        with open(os.path.join(stage, "ablation.csv"), "w", encoding="ascii") as fh:
            fh.write("value,acc_mean,acc_std,fm_mean,fm_std,la_mean,la_std\n")
            for row in rows:
                cells = [row["value"]]
                for name in METRIC_NAMES:
                    cells.append(f"{row[f'{name}_mean']:.6f}")
                    std = row[f"{name}_std"]
                    cells.append("" if np.isnan(std) else f"{std:.6f}")
                fh.write(",".join(cells) + "\n")
    for row in rows:
        print(f"{args.axis}={row['value']}: acc={row['acc_mean']:.4f} "
              f"fm={row['fm_mean']:+.4f} la={row['la_mean']:.4f}")
    print(f"wrote {os.path.join(outdir, 'ablation.csv')}")
    return 0


def cmd_check(args):
    results = checks.run_all(inject_fault=args.inject_fault)
    failed = 0
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        failed += 0 if passed else 1
    return 1 if failed else 0


def _parse_seeds(raw):
    try:
        seeds = tuple(int(s) for s in raw.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {raw!r}")
    if not seeds:
        raise ConfigError("--seeds must list at least one seed")
    return seeds


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
