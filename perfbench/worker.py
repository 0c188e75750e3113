"""One measured (or set-up-only) process of a benchmark workload.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
a ``READY`` line once set-up is done (the parent times process start ->
``READY`` as set-up time), then, in ``measure`` mode, one
``RESULT <json>`` line.  Everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from bench import WORKLOADS  # noqa: E402
from bench.common import self_peak_rss_mb  # noqa: E402
from bench.tracer import Tracer, layer_stats  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), default="measure")
    args = ap.parse_args(argv)

    mod = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    ctx = mod.Context(args.seed, args.workdir)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        mod.install_tracing(tracer)
    try:
        result = mod.measure(ctx, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    final = getattr(mod, "final_checks", None)
    if final is not None:
        bad = final(ctx)
        if bad:
            result["problems"].extend(bad)
            result["failed"] = max(result["failed"], 1)
    result["peak_rss_mb"] = result.get("peak_rss_mb") or self_peak_rss_mb()
    if tracer is not None:
        spans = tracer.spans + result.pop("extra_spans", [])
        path = os.path.join(args.workdir, "spans.jsonl")
        tracer.spans = spans
        tracer.dump(path, {"workload": args.workload, "seed": args.seed})
        result["spans_file"] = path
        result["n_spans"] = len(spans)
        result["layers"] = {**layer_stats(spans), **result.pop("extra_layers", {})}
        result["layer_traced"] = mod.layer_metrics(spans, result)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
