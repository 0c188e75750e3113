"""The traced launcher runs ``repro.cli serve`` itself and traces its daemon."""

import os
import subprocess
import sys
import time

from bench import daemon
from bench.tracer import load_spans

from conftest import BENCH, ROOT

LAUNCHER = os.path.join(BENCH, "launcher.py")


def _launch(tmp_path, *serve_args):
    return subprocess.Popen(
        [sys.executable, LAUNCHER, "--trace-out", str(tmp_path / "spans.jsonl"),
         *serve_args],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )


def test_serves_drains_and_writes_spans(tmp_path):
    sock = str(tmp_path / "d.sock")
    proc = _launch(tmp_path, "--socket", sock, "--time-scale", "1e5", "--seed", "1")
    try:
        deadline = time.monotonic() + 60.0
        while True:
            assert proc.poll() is None, "launcher exited at boot"
            try:
                if daemon._request(sock, {"op": "health"})["health"]["ok"]:
                    break
            except (OSError, ValueError, KeyError):
                pass
            assert time.monotonic() < deadline, "daemon never answered health"
            time.sleep(0.02)
        resp = daemon._request(sock, {"op": "submit", "tenant": "alpha",
                                      "file_sizes": [4e9], "wait": True})
        assert resp["state"] == "succeeded"
    finally:
        code, report = daemon.stop(proc)
    assert code == 75
    assert report is not None and report["metrics"]["n_lost"] == 0
    header, spans = load_spans(str(tmp_path / "spans.jsonl"))
    names = {s.name for s in spans}
    assert "vc.oscars.OscarsIDC.create_reservation_with_retry" in names
    assert "net.routing.least_congested_path" in names
    assert header["n_lag_samples"] > 0 and header["vsleep_s"] > 0


def test_serve_config_errors_pass_through(tmp_path):
    proc = _launch(tmp_path, "--socket", str(tmp_path / "d.sock"),
                   "--scheduler", "no-such-policy")
    proc.communicate(timeout=60)
    assert proc.returncode == 2
