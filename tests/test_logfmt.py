"""Unit tests for the usage and netlogger log formats."""

import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridftp.logfmt import (
    format_netlogger_line,
    parse_netlogger_line,
    read_netlogger_log,
    read_usage_log,
    write_netlogger_log,
    write_usage_log,
)
from repro.gridftp.records import _SCHEMA, ANONYMIZED_HOST, TransferLog, TransferType
from repro.workload import datasets, synth
from tests.oracles import read_usage_log_reference


def sample_log(n=7, seed=2):
    rng = np.random.default_rng(seed)
    return TransferLog(
        {
            "start": np.sort(rng.uniform(0, 1e6, n)).round(6),
            "duration": rng.uniform(0.5, 500, n).round(6),
            "size": rng.integers(1e3, 1e10, n).astype(float),
            "transfer_type": rng.integers(0, 2, n),
            "streams": rng.integers(1, 9, n),
            "stripes": rng.integers(1, 5, n),
            "tcp_buffer": rng.integers(0, 1 << 22, n),
            "block_size": np.full(n, 262144),
            "local_host": rng.integers(0, 5, n),
            "remote_host": rng.integers(0, 5, n),
        }
    )


class TestUsageFormat:
    def test_roundtrip_file(self, tmp_path):
        log = sample_log()
        path = tmp_path / "usage.log"
        write_usage_log(log, path)
        assert read_usage_log(path) == log

    def test_roundtrip_stream(self):
        log = sample_log(3)
        buf = io.StringIO()
        write_usage_log(log, buf)
        buf.seek(0)
        assert read_usage_log(buf) == log

    def test_header_comment_present(self, tmp_path):
        path = tmp_path / "u.log"
        write_usage_log(sample_log(1), path)
        assert path.read_text().startswith("#")

    def test_empty_log(self, tmp_path):
        path = tmp_path / "e.log"
        write_usage_log(TransferLog(), path)
        assert len(read_usage_log(path)) == 0

    def test_malformed_row_rejected(self):
        buf = io.StringIO("# header\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_usage_log(buf)

    def test_blank_lines_skipped(self):
        buf = io.StringIO("\n\n# c\n")
        assert len(read_usage_log(buf)) == 0


def assert_same_log(got: TransferLog, want: TransferLog) -> None:
    """Every column equal bit for bit, dtype included."""
    for name in _SCHEMA:
        a, b = got.column(name), want.column(name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def outcome(reader, text: str):
    """The log ``reader`` makes of ``text``, or the ValueError it raises."""
    try:
        return reader(io.StringIO(text))
    except ValueError as exc:
        return type(exc), str(exc)


#: every spelling TransferType.parse accepts
SPELLINGS = ("STOR", "STORE", "S", "RETR", "RETRIEVE", "R")

#: a spelling with each letter in either case
type_tokens = st.sampled_from(SPELLINGS).flatmap(
    lambda word: st.tuples(*(st.sampled_from([c, c.lower()]) for c in word))
).map("".join)


def float_fields(min_value=None):
    """Floats as ``%.17g`` (nan and inf included) or as the writer's ``%.6f``."""
    return st.one_of(
        st.floats(min_value=min_value).map(lambda x: f"{x:.17g}"),
        st.floats(min_value=min_value or -1e15, max_value=1e15).map(
            lambda x: f"{x:.6f}"),
    )


#: ints across the whole int64 range, biased to ones every column accepts
int_fields = st.one_of(
    st.integers(1, 64), st.integers(-(2**63), 2**63 - 1)
).map(str)

data_rows = st.tuples(
    st.sampled_from(["", " "]),
    st.sampled_from([" ", "\t", "  "]),
    st.tuples(float_fields(), float_fields(0.0), float_fields(0.0), type_tokens,
              *[int_fields] * 6),
).map(lambda r: r[0] + r[1].join(r[2]))

#: blank and comment lines that may sit between data rows
filler_lines = st.lists(
    st.sampled_from(["", "   ", "\t", "#", "# note", "## a # b"]), max_size=2
)


@st.composite
def usage_texts(draw):
    """A usage log as text: data rows with blank and ``#`` lines between."""
    lines = ["# start duration size type"] if draw(st.booleans()) else []
    for fillers, row in draw(st.lists(st.tuples(filler_lines, data_rows), max_size=12)):
        lines += fillers + [row]
    # "\n" and "\r\n" as written on disk; the rest only str.splitlines breaks on
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "\f", "\u2028"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestReaderMatchesReference:
    """``read_usage_log`` against the per-row reader it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(usage_texts())
    def test_generated_logs(self, text):
        got = outcome(read_usage_log, text)
        want = outcome(read_usage_log_reference, text)
        if isinstance(want, TransferLog):
            assert isinstance(got, TransferLog), got
            assert_same_log(got, want)
        else:
            assert got == want

    @pytest.mark.parametrize("name", sorted(datasets.DATASETS))
    def test_written_datasets(self, name, tmp_path):
        # the two large datasets are generated at 4,000 rows
        large = {"NCAR-NICS": synth.ncar_nics, "SLAC-BNL": synth.slac_bnl}
        if name in large:
            log = large[name](seed=3, n_transfers=4000)
        else:
            log = datasets.load(name, seed=3)
        path = tmp_path / "usage.log"
        write_usage_log(log, path)
        assert_same_log(read_usage_log(path), read_usage_log_reference(path))


DATA_ROW = "1.5 2.5 3 RETR 1 1 0 262144 0 1"


class TestReaderRefusals:
    """Malformed logs are refused with the reference reader's error."""

    @pytest.mark.parametrize("text, message", [
        (f"# h\n{DATA_ROW}\n\n# c\n1.0 2.0 3.0\n",
         "malformed usage-log row 2: expected 10 fields, got 3"),
        (f"{DATA_ROW}\n{DATA_ROW} 7\n",
         "malformed usage-log row 2: expected 10 fields, got 11"),
        ("1.0 2.0 3.0\n", "malformed usage-log row 1: expected 10 fields, got 3"),
        (f"{DATA_ROW}\n{DATA_ROW} # note\n",
         "malformed usage-log row 2: expected 10 fields, got 12"),
        (f"{DATA_ROW}\n  # note\n{DATA_ROW}\n",
         "malformed usage-log row 2: expected 10 fields, got 2"),
        (f"{DATA_ROW}\n" + DATA_ROW.replace("RETR", "XFER"),
         "unknown transfer type: 'XFER'"),
        ("\n".join(DATA_ROW.replace("RETR", t) for t in ("stor", "ZZ", "AA", "ZZ")),
         "unknown transfer type: 'ZZ'"),
    ])
    def test_message_matches_reference(self, text, message):
        for reader in (read_usage_log, read_usage_log_reference):
            with pytest.raises(ValueError) as info:
                reader(io.StringIO(text))
            assert str(info.value) == message

    @pytest.mark.parametrize("token", ["RETRIEVES", "RETRIEVEXX", "STORAGE-CLASS"])
    def test_overlong_type_token_refused(self, token):
        text = DATA_ROW.replace("RETR", token)
        with pytest.raises(ValueError, match="unknown transfer type"):
            read_usage_log_reference(io.StringIO(text))
        # the token is read nine characters wide and named as cut short
        with pytest.raises(ValueError) as info:
            read_usage_log(io.StringIO(text))
        assert str(info.value) == f"unknown transfer type: {token[:9] + '...'!r}"

    @pytest.mark.parametrize("old, new", [
        ("1.5", "x"),
        ("2.5", "1.5.0"),
        ("262144", "2.6e5"),
        (" 1 1 ", " 1.0 1 "),
        ("RETR", "RETR\x00"),
    ])
    def test_bad_field_refused(self, old, new):
        text = DATA_ROW.replace(old, new, 1)
        with pytest.raises(ValueError):
            read_usage_log_reference(io.StringIO(text))
        with pytest.raises(ValueError):
            read_usage_log(io.StringIO(text))

    def test_digit_underscores_refused(self):
        # int() and float() accept "262_144"; the column parser does not
        text = DATA_ROW.replace("262144", "262_144")
        assert len(read_usage_log_reference(io.StringIO(text))) == 1
        with pytest.raises(ValueError):
            read_usage_log(io.StringIO(text))

    @pytest.mark.parametrize("text", [
        "", "# start duration size type\n", "\n\n  \n\t\n", "# a\n\n# b",
    ])
    def test_no_rows_is_an_empty_log_without_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = read_usage_log(io.StringIO(text))
        assert len(log) == 0
        assert_same_log(log, read_usage_log_reference(io.StringIO(text)))


class TestNetloggerFormat:
    def test_line_roundtrip(self):
        log = sample_log(1)
        line = format_netlogger_line(log, 0)
        parsed = parse_netlogger_line(line)
        rec = log.record(0)
        assert parsed["start"] == pytest.approx(rec.start)
        assert parsed["size"] == rec.size
        assert parsed["streams"] == rec.streams
        assert parsed["transfer_type"] == int(rec.transfer_type)

    def test_file_roundtrip(self, tmp_path):
        log = sample_log(5)
        path = tmp_path / "gridftp.log"
        write_netlogger_log(log, path)
        back = read_netlogger_log(path)
        assert back == log

    def test_anonymized_dest_token(self):
        log = sample_log(1).anonymize_remote()
        line = format_netlogger_line(log, 0)
        assert "DEST=ANON" in line
        assert parse_netlogger_line(line)["remote_host"] == ANONYMIZED_HOST

    def test_unknown_keys_ignored(self):
        line = "START=1.0 DURATION=2.0 NBYTES=3 FOO=bar CODE=226"
        parsed = parse_netlogger_line(line)
        assert parsed["size"] == 3.0
        assert "FOO" not in parsed

    def test_missing_mandatory_rejected(self):
        with pytest.raises(ValueError, match="mandatory"):
            parse_netlogger_line("DURATION=1.0 NBYTES=5")

    def test_type_token_parsed(self):
        line = "START=0 DURATION=1 NBYTES=2 TYPE=STOR"
        assert parse_netlogger_line(line)["transfer_type"] == int(TransferType.STOR)

    def test_read_from_iterable(self):
        lines = ["START=0 DURATION=1 NBYTES=100", ""]
        log = read_netlogger_log(lines)
        assert len(log) == 1
        assert log.size[0] == 100.0

    def test_read_empty(self):
        assert len(read_netlogger_log([])) == 0

    def test_heterogeneous_rows_assemble_in_schema_order(self):
        """Rows carrying different key subsets must parse deterministically.

        Column assembly used to iterate a set union over row keys, whose
        order varies with the process hash seed; columns now come out in
        schema order with per-field defaults filling the gaps.
        """
        lines = [
            "START=0 DURATION=1 NBYTES=100 STREAMS=4",
            "START=5 DURATION=2 NBYTES=200 BUFFER=65536 DEST=3",
            "START=9 DURATION=3 NBYTES=300",
        ]
        log = read_netlogger_log(lines)
        assert len(log) == 3
        # fields any row carried are materialized for every row...
        assert list(log.streams) == [4, 1, 1]  # schema default fills rows 2-3
        assert list(log.column("tcp_buffer")) == [0, 65536, 0]
        assert log.column("remote_host")[1] == 3
        # ...and assembly order is the schema's, not hash order
        assert read_netlogger_log(lines) == log

    def test_heterogeneous_rows_roundtrip_through_write(self, tmp_path):
        lines = [
            "START=0 DURATION=1 NBYTES=100 STREAMS=4",
            "START=5 DURATION=2 NBYTES=200 BUFFER=65536",
        ]
        log = read_netlogger_log(lines)
        path = tmp_path / "het.log"
        write_netlogger_log(log, path)
        assert read_netlogger_log(path) == log


class TestBatchFormatting:
    """Columnar batch formatters are byte-identical to per-row paths."""

    def test_format_netlogger_lines_matches_per_row(self):
        from repro.gridftp.logfmt import format_netlogger_lines

        log = sample_log(n=64, seed=7)
        batch = format_netlogger_lines(log)
        assert batch == [format_netlogger_line(log, i) for i in range(len(log))]

    def test_format_netlogger_lines_anonymized(self):
        from repro.gridftp.logfmt import format_netlogger_lines

        log = sample_log(n=5, seed=3).select(np.arange(5))
        cols = {n: log.column(n).copy() for n in
                ("start", "duration", "size", "transfer_type", "streams",
                 "stripes", "tcp_buffer", "block_size",
                 "local_host", "remote_host")}
        cols["remote_host"][:] = ANONYMIZED_HOST
        anon = TransferLog(cols)
        batch = format_netlogger_lines(anon)
        assert all("DEST=ANON" in ln for ln in batch)
        assert batch == [format_netlogger_line(anon, i) for i in range(5)]

    def test_format_netlogger_lines_slice(self):
        from repro.gridftp.logfmt import format_netlogger_lines

        log = sample_log(n=20, seed=9)
        assert format_netlogger_lines(log, 5, 12) == [
            format_netlogger_line(log, i) for i in range(5, 12)
        ]

    def test_batched_usage_write_round_trips_large(self):
        # > _WRITE_BATCH_ROWS would be slow here; instead force several
        # small batches through the writer and pin the round trip
        import repro.gridftp.logfmt as lf

        log = sample_log(n=1000, seed=5)
        old = lf._WRITE_BATCH_ROWS
        lf._WRITE_BATCH_ROWS = 64
        try:
            buf = io.StringIO()
            write_usage_log(log, buf)
            small = buf.getvalue()
        finally:
            lf._WRITE_BATCH_ROWS = old
        buf2 = io.StringIO()
        write_usage_log(log, buf2)
        assert small == buf2.getvalue()
        assert read_usage_log(io.StringIO(small)) == log

    def test_batched_netlogger_write_batch_invariant(self, tmp_path):
        import repro.gridftp.logfmt as lf

        log = sample_log(n=300, seed=6)
        p1, p2 = tmp_path / "small.log", tmp_path / "big.log"
        old = lf._WRITE_BATCH_ROWS
        lf._WRITE_BATCH_ROWS = 17
        try:
            write_netlogger_log(log, p1)
        finally:
            lf._WRITE_BATCH_ROWS = old
        write_netlogger_log(log, p2)
        assert p1.read_text() == p2.read_text()
        assert read_netlogger_log(p1) == log
