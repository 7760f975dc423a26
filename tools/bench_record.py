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
are lower-is-better), ``median_ratio``, the ratio of its median to the
baseline's, less 1, whether those medians differ by more than the
baseline's interquartile range, and ``pair_ratio``, the median over the
pairs of each pair's ratio of its run to the baseline's. The sides'
medians drift with the machine between pairs, by ±10% on a 2-CPU box, while
both runs of a pair see much the same machine, so ``pair_ratio`` is the
steadier figure of the two.

Each checkout also runs one ``perfbench/run.py --trace 1`` of the same
workloads and seed, and the experiment keeps its per-layer metrics
(``per_layer``) beside the end-to-end rows. The traced encoder figures
(``tensor.conv2d.encoder.*`` and ``encoder.*``) count only the main
process's encoding, which perfbench's tracer sees: 0 on a full classifier's
workloads, whose feature worker encodes every row, and the main process's
share on a head-only one's.

Each checkout also runs the default config's seed 0 three times, ``streamcl
run --seeds 0`` under ``OPENBLAS_NUM_THREADS=1``, in rounds that alternate
the checkouts as the pairs do. ``default_seed0`` keeps every run and the
median of each key: the manifest's ``seed_wall_s``, ``peak_rss_mb`` and
``worker_peak_rss_mb`` (perfbench's ``peak_rss_mb`` counts its own process
only, ``RUSAGE_SELF``, not the feature worker that a run forks), and
``cpu_s``, the CPU seconds of the run's main process plus the worker it
reaped (``os.wait4``). Each other checkout's ``default_seed0`` also keeps
``round_ratios``: per key of ROUND_KEYS, each round's ratio of its run to
the baseline's, and their median.
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
ROUND_KEYS = ("seed_wall_s", "cpu_s", "worker_peak_rss_mb")


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
    """One default-config seed-0 run of ``checkout`` at one OpenBLAS thread:
    its manifest entries MANIFEST_KEYS, numbers as floats, and ``cpu_s``, the
    CPU seconds of its main process plus the feature worker it reaped."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(checkout).resolve() / "src"))
    with tempfile.TemporaryDirectory(prefix="bench-seed0-") as tmp:
        cmd = [sys.executable, "-m", "streamcl.cli", "run", "--seeds", "0", "--out", tmp + "/out"]
        with open(Path(tmp, "log"), "w+") as log:
            proc = subprocess.Popen(cmd, cwd=checkout, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            # wait4's usage of a child includes the children it reaped: the worker
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                log.seek(0)
                raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                                 f"{log.read()[-2000:]}")
        lines = Path(tmp, "out", "manifest.txt").read_text().splitlines()
    entries = dict(line.split(" = ", 1) for line in lines if " = " in line)
    out = {}
    for key in MANIFEST_KEYS:
        try:
            out[key] = float(entries[key])
        except (KeyError, ValueError):  # absent at older checkouts, or not a number
            out[key] = entries.get(key)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
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


def ratios(runs, base_runs):
    """Each pair's ratio of ``runs`` to ``base_runs``, skipping a pair without
    two numbers or with a baseline of 0, and their median (None if none is left)."""
    each = [o / b for o, b in zip(runs, base_runs)
            if isinstance(o, (int, float)) and isinstance(b, (int, float)) and b]
    return {"median": statistics.median(each) if each else None, "each": each}


def compare(base, other):
    """Per workload and metric: pairs ``other`` won, the ratio of its median to
    ``base``'s, and the median of its per-pair ratios."""
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
                "pair_ratio": ratios(fig["runs"], ref["runs"])["median"],
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
    path = Path(args.out)  # read first, so that a file that does not parse costs no runs
    record = json.loads(path.read_text()) if path.exists() else {"experiments": []}
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
    seed0 = {name: [] for name in names}
    for i in range(3):  # rounds, alternating the checkouts as the pairs do
        for name in names if i % 2 == 0 else names[::-1]:
            seed0[name].append(default_seed(checkouts[name]))
            print(f"{name} default seed 0, run {i + 1}/3: {seed0[name][-1]}", flush=True)
    for name, seed_runs in seed0.items():
        median = {key: statistics.median(r[key] for r in seed_runs) for key in seed_runs[0]
                  if all(isinstance(r[key], float) for r in seed_runs)}
        summary[name]["default_seed0"] = {"median": median, "runs": seed_runs}
        if name != names[0]:
            summary[name]["default_seed0"]["round_ratios"] = {
                key: ratios([r[key] for r in seed_runs], [r[key] for r in seed0[names[0]]])
                for key in ROUND_KEYS}
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
    record["experiments"].append(experiment)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1) + "\n")
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
