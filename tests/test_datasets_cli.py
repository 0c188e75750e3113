"""Tests for the dataset registry and the command-line interface."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.workload.datasets import DATASETS, load


class TestRegistry:
    def test_four_datasets(self):
        assert set(DATASETS) == {
            "NCAR-NICS", "SLAC-BNL", "NERSC-ORNL-32GB", "NERSC-ANL-TEST",
        }

    def test_transfer_counts(self):
        assert DATASETS["NCAR-NICS"].n_transfers == 52_454
        assert DATASETS["SLAC-BNL"].n_transfers == 1_021_999
        assert DATASETS["NERSC-ORNL-32GB"].n_transfers == 145
        assert DATASETS["NERSC-ANL-TEST"].n_transfers == 334

    def test_nersc_datasets_anonymized(self):
        log = load("NERSC-ORNL-32GB", seed=1)
        assert log.is_anonymized
        log = load("NERSC-ANL-TEST", seed=1)
        assert log.is_anonymized

    def test_ncar_not_anonymized(self):
        log = load("NCAR-NICS", seed=1)
        assert not log.is_anonymized

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load("LHC")

    def test_experiment_tags_present(self):
        for spec in DATASETS.values():
            assert spec.experiments

    def test_default_seed_is_the_same_in_every_process(self):
        # Python salts str hashes per process; a default seed must not
        # depend on the salt, or `load(name)` differs from run to run
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        script = ("from repro.workload.datasets import DATASETS; "
                  "print({k: v.default_seed for k, v in DATASETS.items()})")
        outs = []
        for salt in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=salt,
                       PYTHONPATH=os.path.abspath(src))
            outs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True, timeout=120,
            ).stdout)
        here = {k: v.default_seed for k, v in DATASETS.items()}
        assert outs[0] == outs[1] == f"{here}\n"


class TestCli:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "NCAR-NICS" in out and "anonymized" in out

    def test_generate_and_summary(self, tmp_path, capsys):
        out_file = tmp_path / "ornl.log"
        assert main(["generate", "NERSC-ORNL-32GB", "--seed", "3",
                     "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert main(["summary", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "tput Mbps" in out

    def test_sessions_command(self, tmp_path, capsys):
        out_file = tmp_path / "ncar.log"
        # small NCAR slice via direct generation for speed
        from repro.gridftp.logfmt import write_usage_log
        from repro.workload.synth import ncar_nics

        write_usage_log(ncar_nics(seed=2, n_transfers=2000), out_file)
        assert main(["sessions", str(out_file), "--g", "60"]) == 0
        out = capsys.readouterr().out
        assert "sessions" in out

    def test_suitability_command(self, tmp_path, capsys):
        out_file = tmp_path / "ncar.log"
        from repro.gridftp.logfmt import write_usage_log
        from repro.workload.synth import ncar_nics

        write_usage_log(ncar_nics(seed=2, n_transfers=2000), out_file)
        assert main(["suitability", str(out_file)]) == 0
        assert "%" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCliExtensions:
    @staticmethod
    def _write_log(tmp_path, n=2000):
        from repro.gridftp.logfmt import write_usage_log
        from repro.workload.synth import ncar_nics

        path = tmp_path / "ncar.log"
        write_usage_log(ncar_nics(seed=2, n_transfers=n), path)
        return path

    def test_factors_command(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert main(["factors", str(path), "--no-concurrency"]) == 0
        out = capsys.readouterr().out
        assert "stripes" in out and "eta^2" in out

    def test_advise_command(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert main(["advise", str(path), "--bytes", "2e11",
                     "--stripes", "2"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth" in out and "duration" in out

    @pytest.mark.parametrize("flags, message", [
        (["--bytes", "nan"], "session size must be positive and finite, got nan"),
        (["--bytes", "inf"], "session size must be positive and finite, got inf"),
        (["--bytes", "1e11", "--streams", "0"], "streams must be >= 1, got 0"),
        (["--bytes", "1e11", "--stripes", "-1"], "stripes must be >= 1, got -1"),
    ])
    def test_advise_refuses_a_bad_session(self, tmp_path, capsys, flags, message):
        # not a nan/inf duration, nor an answer from the unconditioned cell
        from repro.gridftp.logfmt import write_usage_log

        path = tmp_path / "ornl.log"
        write_usage_log(load("NERSC-ORNL-32GB", seed=3), path)
        assert main(["advise", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_collect_command(self, tmp_path, capsys):
        path = self._write_log(tmp_path, n=800)
        out_path = tmp_path / "collected.log"
        assert main(["collect", str(path), "--loss", "0.1",
                     "--out", str(out_path)]) == 0
        from repro.gridftp.logfmt import read_usage_log

        collected = read_usage_log(out_path)
        assert 0 < len(collected) < 800
        assert collected.is_anonymized

    def test_hntes_command(self, tmp_path, capsys):
        from repro.gridftp.logfmt import write_usage_log
        from repro.workload.synth import ncar_nics
        import numpy as np

        log = ncar_nics(seed=2, n_transfers=2000).sorted_by_start()
        idx = np.arange(len(log))
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        write_usage_log(log.select(idx[idx % 2 == 0]), a)
        write_usage_log(log.select(idx[idx % 2 == 1]), b)
        assert main(["hntes", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "filters installed" in out and "firewall" in out

    def test_arrivals_command(self, tmp_path, capsys):
        path = self._write_log(tmp_path)
        assert main(["arrivals", str(path)]) == 0
        out = capsys.readouterr().out
        assert "burstiness" in out and "sessions" in out

    def test_sessions_at_g_zero(self, tmp_path, capsys):
        # g = 0 is a gap like any other, not "unset, use 60"
        from repro.core.sessions import group_sessions
        from repro.gridftp.logfmt import read_usage_log

        path = self._write_log(tmp_path)
        assert main(["sessions", str(path), "--g", "0"]) == 0
        out = capsys.readouterr().out
        n = len(group_sessions(read_usage_log(path), 0.0))
        assert f"at g=0s: {n:,} sessions" in out

    def test_sessions_labels_a_fractional_gap(self, tmp_path, capsys):
        # g = 0 and g = 0.5 group differently, so their rows need two labels
        from repro.core.sessions import group_sessions
        from repro.gridftp.logfmt import read_usage_log

        path = self._write_log(tmp_path)
        assert main(["sessions", str(path), "--g", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[2:5]] == ["0s", "0.5s", "1s"]
        n = len(group_sessions(read_usage_log(path), 0.5))
        assert f"at g=0.5s: {n:,} sessions" in lines[-1]

    @pytest.mark.parametrize("verb", ["sessions", "arrivals", "analyze"])
    def test_nan_gap_is_refused(self, tmp_path, capsys, verb):
        target = (["ncar-nics", "--n", "2000"] if verb == "analyze"
                  else [str(self._write_log(tmp_path))])
        assert main([verb, *target, "--g", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gap parameter g must be >= 0, got nan\n"

    @pytest.mark.parametrize("verb", ["sessions", "arrivals", "analyze"])
    def test_negative_gap_is_named_as_given(self, tmp_path, capsys, verb):
        # the refusal names g as given, not the 2g of the {0, g, 2g} report
        target = (["ncar-nics", "--n", "2000"] if verb == "analyze"
                  else [str(self._write_log(tmp_path))])
        assert main([verb, *target, "--g", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gap parameter g must be >= 0, got -5.0\n"


class TestAnalyzeCommand:
    def test_analyze_streams_a_census(self, capsys):
        assert main(["analyze", "slac-bnl", "--n", "20000",
                     "--chunk-size", "5000", "--block-transfers", "10000",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "sessions" in out
        assert "transfers/s" in out
        assert "peak streaming state" in out
        assert "tput Mbps" in out

    def test_analyze_rss_budget_pass(self, capsys):
        assert main(["analyze", "slac-bnl", "--n", "5000",
                     "--chunk-size", "2500", "--block-transfers", "5000",
                     "--seed", "1", "--max-rss-mb", "4096"]) == 0
        out = capsys.readouterr().out
        assert "peak RSS" in out and "FAIL" not in out

    def test_analyze_labels_a_fractional_gap(self, capsys):
        assert main(["analyze", "ncar-nics", "--n", "2000", "--g", "0.5",
                     "--seed", "3"]) == 0
        assert "sessions at g=0.5s: " in capsys.readouterr().out

    def test_bad_chunk_size_is_refused(self, capsys):
        assert main(["analyze", "slac-bnl", "--n", "1000",
                     "--chunk-size", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: chunk_size must be >= 1\n"

    def test_too_small_a_log_is_refused(self, capsys):
        # below four sessions plus the planted burst and spike transfers
        # the generator used to spin and die with a raw traceback
        assert main(["analyze", "slac-bnl", "--n", "5",
                     "--chunk-size", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: slac_bnl needs n_transfers >= 8")
        assert captured.err.count("\n") == 1

    def test_analyze_rss_budget_fail(self, capsys):
        # an impossible budget must fail loudly with a nonzero exit
        assert main(["analyze", "slac-bnl", "--n", "5000",
                     "--chunk-size", "2500", "--block-transfers", "5000",
                     "--seed", "1", "--max-rss-mb", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_analyze_census_matches_one_shot(self, capsys):
        from repro.core.sessions import group_sessions
        from repro.gridftp.records import TransferLog
        from repro.workload.synth import generate_stream

        assert main(["analyze", "ncar-nics", "--n", "4000",
                     "--chunk-size", "1000", "--block-transfers", "2000",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        chunks = list(generate_stream("ncar-nics", 4000, 1000, seed=7,
                                      block_transfers=2000))
        ses = group_sessions(TransferLog.concatenate(chunks), 60.0)
        assert f"sessions at g=60s: {len(ses):,}" in out
