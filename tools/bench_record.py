"""Record benchmark runs of one or more checkouts into a ``BENCH_*.json`` file.

Drives the unchanged ``perfbench/run.py`` of each checkout as a subprocess,
``--trace 0``, in alternating pairs: pair i runs the checkouts in the order
given when i is even and in reverse when it is odd, so a drift of the machine
falls on both sides alike. Run from the root of a checkout::

    python3 tools/bench_record.py --out BENCH_22.json \\
        --checkout parent=../parent --checkout change=. \\
        --workload er_csd_topdown --seed 7 --seconds 38 --pairs 10

Each call appends one experiment to ``--out`` (the file is made if missing).
An experiment holds the command, the pair count and, per checkout, the
``env`` line that perfbench printed (commit and ``src/`` hash included) and,
per workload, the median and quartiles of each end-to-end metric over the
runs, the runs' values, ``attempted`` and ``failed`` and the bundle sha256s
seen. With two or more checkouts the first is the baseline: per metric, the
experiment records how many pairs each other checkout won (all five metrics
are lower-is-better), its median against the baseline's, and whether the
medians differ by more than the baseline's interquartile range.

Each checkout also runs one ``perfbench/run.py --trace 1`` of the same
workloads and seed, and the experiment keeps its per-layer metrics
(``per_layer``) beside the end-to-end rows. The traced encoder figures
(``tensor.conv2d.encoder.*`` and ``encoder.*``) read 0: the encoder runs
in the feature worker, which perfbench's tracer does not see.

Each checkout also runs the default config's seed 0 once, ``streamcl run
--seeds 0`` under ``OPENBLAS_NUM_THREADS=1``, and the experiment keeps that
manifest's ``seed_wall_s``, ``peak_rss_mb`` and ``worker_peak_rss_mb``:
perfbench's ``peak_rss_mb`` counts its own process only (``RUSAGE_SELF``),
not the feature worker that a run forks.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("wall_s", "setup_s", "batch_p50_ms", "batch_p90_ms", "peak_rss_mb")
MANIFEST_KEYS = ("seed_wall_s", "peak_rss_mb", "worker_peak_rss_mb", "feature_worker")


def run_once(checkout, workload, seed, seconds, trace=0):
    """One ``perfbench/run.py`` call: (env, {workload: row}), each row holding
    its metric values, ``attempted``, ``failed`` and ``sha256``; the metrics are
    the end-to-end ones, or with ``trace`` 1 the per-layer ones."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    env, rows = None, {}
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith("info "):
            info = json.loads(line[5:])
            rows[info["workload"]] = {"attempted": info["attempted"], "failed": info["failed"],
                                      "sha256": info["sha256"], "metrics": {}}
    for key, metric in json.loads(lines[-1])["metrics"].items():
        # "all" prefixes each metric with its workload; workload names hold no dot
        name, _, metric_name = key.partition(".") if workload == "all" else (workload, ".", key)
        rows[name]["metrics"][metric_name] = (metric["value"], metric["unit"])
    return env, rows


def default_seed(checkout):
    """The manifest entries MANIFEST_KEYS of one default-config seed-0 run of
    ``checkout`` at one OpenBLAS thread, numbers as floats."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(checkout).resolve() / "src"))
    with tempfile.TemporaryDirectory(prefix="bench-seed0-") as tmp:
        cmd = [sys.executable, "-m", "streamcl.cli", "run", "--seeds", "0", "--out", tmp + "/out"]
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        lines = Path(tmp, "out", "manifest.txt").read_text().splitlines()
    entries = dict(line.split(" = ", 1) for line in lines if " = " in line)
    out = {}
    for key in MANIFEST_KEYS:
        try:
            out[key] = float(entries[key])
        except (KeyError, ValueError):  # absent at older checkouts, or not a number
            out[key] = entries.get(key)
    return out


def summarize(runs):
    """Per workload: the quartiles of each metric over ``runs``, and the counts."""
    out = {}
    for name in runs[0]:
        rows = [r[name] for r in runs]
        metrics = {}
        for metric in METRICS:
            values = [r["metrics"][metric][0] for r in rows if metric in r["metrics"]]
            if not values:
                continue
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else values * 3)
            metrics[metric] = {"unit": rows[0]["metrics"][metric][1], "median": median,
                               "q1": q1, "q3": q3, "runs": values}
        out[name] = {"attempted": sum(r["attempted"] for r in rows),
                     "failed": sum(r["failed"] for r in rows),
                     "sha256": sorted({r["sha256"] for r in rows if r["sha256"]}),
                     "metrics": metrics}
    return out


def compare(base, other):
    """Per workload and metric: pairs ``other`` won, and its median against ``base``'s."""
    out = {}
    for name, row in other.items():
        out[name] = {}
        for metric, fig in row["metrics"].items():
            ref = base[name]["metrics"].get(metric)
            if ref is None:
                continue
            wins = sum(o < b for o, b in zip(fig["runs"], ref["runs"]))
            out[name][metric] = {
                "wins": wins, "pairs": min(len(fig["runs"]), len(ref["runs"])),
                "median_ratio": fig["median"] / ref["median"] - 1 if ref["median"] else None,
                "beyond_base_iqr": abs(fig["median"] - ref["median"]) > ref["q3"] - ref["q1"],
            }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to append to")
    parser.add_argument("--checkout", action="append", required=True, metavar="NAME=DIR",
                        help="a checkout to run; the first is the baseline")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", default="", help="what the experiment is for")
    args = parser.parse_args(argv)
    checkouts = dict(c.split("=", 1) for c in args.checkout)
    names = list(checkouts)
    runs = {name: [] for name in names}
    envs = {}
    for i in range(args.pairs):
        for name in names if i % 2 == 0 else names[::-1]:
            env, rows = run_once(checkouts[name], args.workload, args.seed, args.seconds)
            envs.setdefault(name, env)
            runs[name].append(rows)
            print(f"pair {i + 1}/{args.pairs} {name}: " + ", ".join(
                f"{w}.{m}={v[0]:.4g}" for w, r in rows.items()
                for m, v in r["metrics"].items() if m in ("wall_s", "batch_p50_ms")), flush=True)
    summary = {name: {"env": envs[name], "workloads": summarize(runs[name])} for name in names}
    for name in names:
        _, rows = run_once(checkouts[name], args.workload, args.seed, args.seconds, trace=1)
        summary[name]["per_layer"] = {w: {"attempted": r["attempted"], "failed": r["failed"],
                                          "sha256": r["sha256"],
                                          "metrics": {m: {"value": v, "unit": u}
                                                      for m, (v, u) in r["metrics"].items()}}
                                      for w, r in rows.items()}
        print(f"{name} per-layer: {sum(len(r['metrics']) for r in rows.values())} figures",
              flush=True)
        summary[name]["default_seed0"] = default_seed(checkouts[name])
        print(f"{name} default seed 0: {summary[name]['default_seed0']}", flush=True)
    experiment = {
        "label": args.label,
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0; per_layer: the same with --trace 1",
        "pairs": args.pairs,
        "rows": summary,
        "against_" + names[0]: {name: compare(summary[names[0]]["workloads"],
                                              summary[name]["workloads"]) for name in names[1:]},
    }
    path = Path(args.out)
    record = json.loads(path.read_text()) if path.exists() else {"experiments": []}
    record["experiments"].append(experiment)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1) + "\n")
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
