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
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "batch_p50_ms", "batch_p90_ms", "peak_rss_mb")


def run_once(checkout, workload, seed, seconds):
    """One ``perfbench/run.py`` call: (env, {workload: row}), each row holding
    its metric values, ``attempted``, ``failed`` and ``sha256``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
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
        name, _, metric_name = key.rpartition(".")
        rows[name or workload]["metrics"][metric_name] = (metric["value"], metric["unit"])
    return env, rows


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
    experiment = {
        "label": args.label,
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
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
