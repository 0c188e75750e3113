"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--confirm-seed <n>]

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes an untraced and a traced run of half the
length each and reports the per-layer metrics plus the tracing overhead.
Human-readable lines come first; the last line of stdout is the JSON
result.  The exit code is non-zero when a correctness check failed (the
result line is still printed) or when the benchmark could not run at
all (no result line).  ``--confirm-seed`` generates the inputs from a
second seed, kept for confirming a claim on inputs the change was not
written against; both seeds are recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from bench.metrics import DETAIL_UNITS, END_TO_END, PER_LAYER, RATE_SLOTS  # noqa: E402

WORKLOADS = tuple(RATE_SLOTS)
#: fresh-process set-ups per run; set_up_s is their median
SETUP_SAMPLES = 3
#: the daemon workload times its own set-ups (one daemon boot per rung)
SELF_TIMED_SETUP = ("daemon_openloop",)
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
#: a whole invocation must stay well inside three minutes
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def spawn(args: argparse.Namespace, workdir: str, mode: str, seconds: float,
          trace: int, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from start to READY, its result)."""
    os.makedirs(workdir, exist_ok=True)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.input_seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--workdir", workdir, "--mode", mode,
    ]
    with open(os.path.join(workdir, "worker.log"), "wb") as log:
        t0 = time.perf_counter()
        # its own process group, so a watchdog kill also reaches the
        # daemons and pool workers the worker started
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                                start_new_session=True)
        watchdog = threading.Timer(max(deadline - t0, 1.0), _kill_group, (proc,))
        watchdog.start()
        ready = None
        result = None
        try:
            for line in proc.stdout:
                if line.strip() == b"READY" and ready is None:
                    ready = time.perf_counter() - t0
                elif line.startswith(b"RESULT "):
                    result = json.loads(line[len(b"RESULT "):])
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                _kill_group(proc)
                proc.wait()
            proc.stdout.close()
    if proc.returncode != 0 or ready is None or (mode == "measure" and result is None):
        with open(os.path.join(workdir, "worker.log"), "rb") as fh:
            tail = fh.read()[-2000:].decode(errors="replace")
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{tail}")
    return ready, result


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def share_table(layers: dict[str, dict]) -> list[dict]:
    """Traced layers by self time, with each one's share of the traced total."""
    total = sum(row["self_s"] for row in layers.values()) or 1.0
    return [
        {"layer": name, "calls": row["calls"], "busy_s": row["busy_s"],
         "self_s": row["self_s"], "self_share": row["self_s"] / total}
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
    ]


def run_untraced(args: argparse.Namespace, work: str, deadline: float):
    setups = []
    if args.workload not in SELF_TIMED_SETUP:
        for i in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args, os.path.join(work, f"setup-{i}"), "setup",
                                args.seconds, 0, deadline)[0])
    ready, res = spawn(args, os.path.join(work, "measure"), "measure",
                       args.seconds, 0, deadline)
    if args.workload in SELF_TIMED_SETUP:
        setups = res["setup_samples_s"]
    else:
        setups.append(ready)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "primary_per_s": res["primary"],
        "secondary_per_s": res["secondary"],
    }
    return metrics, [res], {"setup_samples_s": setups}


def run_traced(args: argparse.Namespace, work: str, deadline: float):
    half = args.seconds / 2.0
    _, plain = spawn(args, os.path.join(work, "untraced"), "measure", half, 0, deadline)
    _, traced = spawn(args, os.path.join(work, "traced"), "measure", half, 1, deadline)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(plain["layer_untraced"])
    metrics.update(traced["layer_traced"])
    metrics["bench.trace_overhead.primary_frac"] = 1.0 - traced["primary"] / plain["primary"]
    metrics["bench.trace_overhead.secondary_frac"] = (
        1.0 - traced["secondary"] / plain["secondary"])
    extra = {
        "untraced": {"primary": plain["primary"], "secondary": plain["secondary"]},
        "traced": {"primary": traced["primary"], "secondary": traced["secondary"]},
        "share_table": share_table(traced["layers"]),
        "spans_file": os.path.relpath(traced["spans_file"], ROOT),
        "n_spans": traced["n_spans"],
    }
    return metrics, [plain, traced], extra


def report(args, metrics, results, extra, prov) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    units = {k: v[0] for k, v in (END_TO_END if not args.trace else PER_LAYER).items()}
    primary, secondary = RATE_SLOTS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  input seed {args.input_seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name in units:
        if args.trace and not metrics[name]:
            continue  # a layer this workload never calls
        note = {"primary_per_s": f"  = {primary}",
                "secondary_per_s": f"  = {secondary}"}.get(name, "")
        print(f"  {name:<42} {metrics[name]:>16.6g} {units[name]}{note}")
    for name, value in results[0]["detail"].items():
        if name in DETAIL_UNITS:
            print(f"  {name:<42} {value:>16.6g} {DETAIL_UNITS[name]}")
    print(f"  {'fail_frac':<42} {failed / attempted if attempted else 0.0:>16.6g} ratio"
          f"  ({failed} of {attempted})")
    if args.workload == "daemon_openloop":
        for name, r in results[0]["detail"]["rungs"].items():
            print(f"  rung {name:<12} {results[0]['detail']['rates_rps'][name]:7.1f} req/s"
                  f"  n {r['n']:5d}  settle p50 {r['settle_p50_ms']:8.2f} ms"
                  f"  p90 {r['settle_p90_ms']:8.2f} ms"
                  f"  p99 {r['settle_p99_ms']:8.2f} ms  ack p99 {r['ack_p99_ms']:6.2f} ms"
                  f"  shed {r['shed']:4d}  late p99 {r['gen_late_p99_ms']:5.2f} ms"
                  f"  {'valid' if r['valid'] else 'INVALID (generator behind)'}")
    if "share_table" in extra:
        print("  layer share of traced self time:")
        for row in extra["share_table"][:12]:
            print(f"    {row['layer']:<28} {100 * row['self_share']:6.1f}%"
                  f"  self {row['self_s']:9.4f} s  calls {row['calls']}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--confirm-seed", type=int, default=None)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    args.input_seed = args.seed if args.confirm_seed is None else args.confirm_seed
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # a terminated benchmark still unwinds, so its worker group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            metrics, results, extra = run_traced(args, work, deadline)
        else:
            metrics, results, extra = run_untraced(args, work, deadline)
        from bench.common import provenance

        prov = provenance(args.seed, args.confirm_seed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    line = report(args, metrics, results, extra, prov)
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": line, "provenance": prov, "detail": results[0]["detail"],
                   **extra}, fh, indent=1, sort_keys=True)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
