"""Helpers shared by the orchestrator, the workload workers and the launcher."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any

import numpy as np

__all__ = [
    "ROOT",
    "SRC",
    "PROBE_REFERENCE_S",
    "derive",
    "median",
    "percentile",
    "cpus",
    "pin",
    "probe_s",
    "steal_s",
    "self_peak_rss_mb",
    "proc_peak_rss_mb",
    "proc_cpu_s",
    "provenance",
]

#: the checkout root (the benchmark always runs from it)
ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(ROOT, "src")


def derive(seed: int, *salt: int) -> int:
    """A sub-seed for one input stream of a workload (stable, 31-bit)."""
    ss = np.random.SeedSequence([int(seed), *map(int, salt)])
    return int(ss.generate_state(1)[0] & 0x7FFFFFFF)


#: what :func:`probe_s` takes on the reference host (2-vCPU Xeon) at its
#: usual speed.  A rate times ``probe / PROBE_REFERENCE_S`` is the rate
#: the host would have shown at that speed: the reference host's cores
#: each drift by 10-30 % over seconds to minutes, independently of each
#: other, and a probe timed on the same core beside the work cancels it.
PROBE_REFERENCE_S = 0.004


def probe_s(repeat: int = 3) -> float:
    """Median seconds of a fixed unit of interpreter and NumPy work, timed
    now on the core this process runs on (collector paused, so the heap
    the measured program left behind does not count)."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            acc = 0
            table: dict[int, int] = {}
            for i in range(20_000):
                acc += i * i
                table[i & 511] = acc
            words = " ".join(str(i) for i in range(4_000)).split()
            acc += sum(len(w) for w in words)
            a = np.arange(40_000, dtype=float)
            acc += float((np.sort(a[::-1]) * a).sum())
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return median(times)


def cpus() -> list[int]:
    """The CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


def pin(cpu_set) -> None:
    """Restrict this process (and children it forks later) to ``cpu_set``."""
    os.sched_setaffinity(0, set(cpu_set))


def steal_s(cpu_set) -> float:
    """Seconds the hypervisor ran something else while CPUs of ``cpu_set``
    wanted to run (the ``steal`` column of ``/proc/stat``), summed over
    them since boot; 0 where the kernel reports no steal."""
    total = 0
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            # per-CPU lines only; the first line sums every CPU
            if not line.startswith("cpu") or not line[3].isdigit():
                continue
            fields = line.split()
            if int(fields[0][3:]) in cpu_set and len(fields) > 8:
                total += int(fields[8])
    return total / os.sysconf("SC_CLK_TCK")


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (``q`` in [0, 100]) as an observed sample, so
    +inf entries (requests that missed every limit) never turn it into nan."""
    return float(np.percentile(np.asarray(values, dtype=float), q, method="inverted_cdf"))


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has used, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over ``src/**/*.py`` (path + bytes): the code's identity
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(seed: int, confirm_seed: int | None) -> dict[str, Any]:
    import networkx
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "confirm_seed": confirm_seed,
        "input_seed": seed if confirm_seed is None else confirm_seed,
    }
