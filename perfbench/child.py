"""One ``streamcl run`` invocation, timed from inside.

Usage: child.py --root DIR --result FILE [--trace] -- <streamcl run arguments>

Imports streamcl from ``DIR/src``, records the online absorb latency of
every stream batch (and, with ``--trace``, the per-layer spans), runs
``streamcl.cli.main(["run", ...])`` and writes one JSON result file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("run_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    run_args = args.run_args[1:] if args.run_args[:1] == ["--"] else args.run_args

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import streamcl.cli

    if not os.path.abspath(streamcl.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"streamcl was imported from {streamcl.cli.__file__}, not {src}")

    from instrument import Tracer, time_batches
    from spans import SpanRecorder

    latencies = []
    tracer = Tracer(SpanRecorder()) if args.trace else None
    spans = tracer.installed() if tracer else contextlib.nullcontext()
    with time_batches(latencies), spans:
        t0 = time.perf_counter()
        rc = streamcl.cli.main(["run", *run_args])
        run_s = time.perf_counter() - t0
    result = {
        "rc": rc,
        "run_s": run_s,
        "latencies_s": latencies,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layers, norm_shape = tracer.summary(run_s)
        result["layers"] = layers
        result["norm_shape"] = norm_shape
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
