"""Reading and writing GridFTP transfer logs as text.

Two on-disk formats are supported:

* **usage format** — one whitespace-separated row per transfer, mirroring
  the fields the Globus usage-stats collector reports (Section II of the
  paper).  This is the canonical interchange format of this package.

* **netlogger format** — ``KEY=value`` pairs in the style of the local
  ``gridftp.log`` files national-lab DTNs keep (``DATE=... TYPE=RETR
  NBYTES=... STREAMS=...``).  Parsed leniently: unknown keys are ignored,
  and missing optional keys fall back to schema defaults.

Both round-trip through :class:`repro.gridftp.records.TransferLog`.
"""

from __future__ import annotations

import io
import os
import re
from collections.abc import Iterable

import numpy as np

from .records import ANONYMIZED_HOST, TransferLog, TransferType

__all__ = [
    "write_usage_log",
    "read_usage_log",
    "format_netlogger_line",
    "format_netlogger_lines",
    "parse_netlogger_line",
    "read_netlogger_log",
    "write_netlogger_log",
]

#: rows formatted per batch on the write paths: one batch of plain-Python
#: scalars at a time, so writer memory stays bounded on million-row logs
_WRITE_BATCH_ROWS = 65_536

_USAGE_HEADER = (
    "# start duration size type streams stripes tcp_buffer block_size "
    "local_host remote_host"
)

_USAGE_COLUMNS = (
    "start",
    "duration",
    "size",
    "transfer_type",
    "streams",
    "stripes",
    "tcp_buffer",
    "block_size",
    "local_host",
    "remote_host",
)

#: the type token is read as text this wide.  No spelling
#: ``TransferType.parse`` accepts is this long and ``str.upper`` never
#: shortens a token, so a token that fills the field (cut short or not)
#: is refused rather than truncated into a valid one
_TYPE_WIDTH = 9

#: the usage columns as read: floats and int64s, which ``TransferLog``
#: then casts to its schema exactly as it casts lists of Python scalars
_USAGE_DTYPE = np.dtype(
    [(name, np.float64) for name in _USAGE_COLUMNS[:3]]
    + [("transfer_type", f"U{_TYPE_WIDTH}")]
    + [(name, np.int64) for name in _USAGE_COLUMNS[4:]]
)

_FIELD_COUNT_ERROR = re.compile(
    r"requires \d+ columns but (?P<got>\d+) were found at row (?P<row>\d+)"
)

#: line breaks ``str.splitlines`` honours besides the "\n" the comment
#: scan splits on
_OTHER_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def write_usage_log(log: TransferLog, path: str | os.PathLike | io.TextIOBase) -> None:
    """Write ``log`` in usage format to ``path`` (path or open text file)."""
    if isinstance(path, io.TextIOBase):
        _write_usage(log, path)
        return
    with open(path, "w", encoding="ascii") as fh:
        _write_usage(log, fh)


def _write_usage(log: TransferLog, fh: io.TextIOBase) -> None:
    fh.write(_USAGE_HEADER + "\n")
    type_names = np.where(log.transfer_type == int(TransferType.STOR), "STOR", "RETR")
    for lo in range(0, len(log), _WRITE_BATCH_ROWS):
        hi = min(lo + _WRITE_BATCH_ROWS, len(log))
        # one tolist() per column batch: the formatting loop then touches
        # only plain Python scalars, not numpy scalars (about 5x faster)
        batch = [log.column(name)[lo:hi].tolist() for name in _USAGE_COLUMNS]
        batch[3] = type_names[lo:hi].tolist()
        fh.writelines(
            f"{s:.6f} {d:.6f} {z:.0f} {t} {st:d} {sp:d} {tb:d} {bs:d} "
            f"{lh:d} {rh:d}\n"
            for s, d, z, t, st, sp, tb, bs, lh, rh in zip(*batch)
        )


def read_usage_log(path: str | os.PathLike | io.TextIOBase) -> TransferLog:
    """Read a usage-format log written by :func:`write_usage_log`.

    Lines split as ``str.splitlines`` splits them; blank lines and lines
    whose first character is ``#`` are skipped.  Every other line is a
    data row of exactly ten whitespace-separated fields, parsed column by
    column in one :func:`numpy.loadtxt` call: ``start``, ``duration`` and
    ``size`` bit for bit as ``float()`` reads them, the six integer
    columns as decimal integers in the int64 range (no digit
    underscores), and the type token through
    :meth:`TransferType.parse`, once per distinct token.  A row with a
    trailing ``# ...`` or an indented ``#`` line is a malformed row, not
    a comment.  Any malformed row raises :class:`ValueError`.
    """
    if isinstance(path, io.TextIOBase):
        text = path.read()
    else:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    text = _drop_comment_lines(text)
    if not text or text.isspace():
        return TransferLog()
    if "\x00" in text:
        # a U field drops trailing NULs, which could turn "S\x00" into "S"
        raise ValueError("usage log contains a NUL character")
    try:
        rows = np.loadtxt(
            text.splitlines(), dtype=_USAGE_DTYPE, comments=None, ndmin=1
        )
    except ValueError as exc:
        # NumPy counts data rows from 1 and skips blank lines, as N does here
        count = _FIELD_COUNT_ERROR.search(str(exc))
        if count is None:
            raise
        raise ValueError(
            f"malformed usage-log row {count['row']}: expected "
            f"{len(_USAGE_COLUMNS)} fields, got {count['got']}"
        ) from None
    # copied out, so each column is contiguous and the row records can go
    cols = {
        name: rows[name].copy() for name in _USAGE_COLUMNS if name != "transfer_type"
    }
    cols["transfer_type"] = _type_codes(rows["transfer_type"])
    return TransferLog(cols)


def _drop_comment_lines(text: str) -> str:
    """``text`` without the lines that start with ``#``.

    The work is one ``str.split`` plus one step per comment line, not
    per row: a usage log has one header line and many data rows.
    """
    if any(ch in text for ch in _OTHER_LINE_BREAKS):
        text = "\n".join(text.splitlines())
    head, *rest = text.split("\n#")
    if head.startswith("#"):
        head = head.partition("\n")[2]
    return "\n".join([head, *(chunk.partition("\n")[2] for chunk in rest)])


def _type_codes(tokens: np.ndarray) -> np.ndarray:
    """``TransferType`` codes for the type tokens, one parse per distinct token.

    Tokens are taken in order of first appearance, so the first unknown
    token in the log is the one reported.
    """
    codes = np.empty(len(tokens), dtype=np.int8)
    todo = np.arange(len(tokens))
    while todo.size:
        token = str(tokens[todo[0]])
        if len(token) == _TYPE_WIDTH:
            raise ValueError(f"unknown transfer type: {token + '...'!r}")
        hit = tokens[todo] == token
        codes[todo[hit]] = TransferType.parse(token)
        todo = todo[~hit]
    return codes


# -- netlogger-style format ------------------------------------------------

_NETLOGGER_KEYS = {
    "START": "start",
    "DURATION": "duration",
    "NBYTES": "size",
    "TYPE": "transfer_type",
    "STREAMS": "streams",
    "STRIPES": "stripes",
    "BUFFER": "tcp_buffer",
    "BLOCK": "block_size",
    "HOST": "local_host",
    "DEST": "remote_host",
}


def format_netlogger_line(log: TransferLog, i: int) -> str:
    """Render row ``i`` of ``log`` as a netlogger-style ``KEY=value`` line."""
    if not -len(log) <= i < len(log):
        raise IndexError(i)
    if i < 0:
        i += len(log)
    return format_netlogger_lines(log, i, i + 1)[0]


def format_netlogger_lines(log: TransferLog, lo: int = 0, hi: int | None = None) -> list[str]:
    """Render rows ``[lo, hi)`` of ``log`` as netlogger-style lines.

    Columnar batch formatting: the per-row
    :class:`~repro.gridftp.records.TransferRecord` materialization the
    old write path did is gone from the hot loop — records remain the
    *boundary* type for single-row access, not the bulk representation.
    """
    if hi is None:
        hi = len(log)
    type_names = np.where(
        log.transfer_type[lo:hi] == int(TransferType.STOR), "STOR", "RETR"
    ).tolist()
    remote = log.remote_host[lo:hi].tolist()
    dests = ["ANON" if r == ANONYMIZED_HOST else str(r) for r in remote]
    return [
        f"START={s:.6f} DURATION={d:.6f} "
        f"NBYTES={z:.0f} TYPE={t} "
        f"STREAMS={st} STRIPES={sp} "
        f"BUFFER={tb} BLOCK={bs} "
        f"HOST={lh} DEST={dest} CODE=226"
        for s, d, z, t, st, sp, tb, bs, lh, dest in zip(
            log.start[lo:hi].tolist(),
            log.duration[lo:hi].tolist(),
            log.size[lo:hi].tolist(),
            type_names,
            log.streams[lo:hi].tolist(),
            log.stripes[lo:hi].tolist(),
            log.column("tcp_buffer")[lo:hi].tolist(),
            log.column("block_size")[lo:hi].tolist(),
            log.local_host[lo:hi].tolist(),
            dests,
        )
    ]


def parse_netlogger_line(line: str) -> dict:
    """Parse one netlogger-style line into a column-value dict.

    Unknown ``KEY=value`` pairs are ignored (real gridftp.log lines carry
    many operational fields this analysis does not use).  Raises
    ``ValueError`` if a known key has an unparseable value or mandatory
    keys (START, DURATION, NBYTES) are missing.
    """
    out: dict = {}
    for token in line.split():
        if "=" not in token:
            continue
        key, _, value = token.partition("=")
        field = _NETLOGGER_KEYS.get(key)
        if field is None:
            continue
        if field == "transfer_type":
            out[field] = int(TransferType.parse(value))
        elif field == "remote_host":
            out[field] = ANONYMIZED_HOST if value == "ANON" else int(value)
        elif field in ("start", "duration", "size"):
            out[field] = float(value)
        else:
            out[field] = int(value)
    missing = {"start", "duration", "size"} - set(out)
    if missing:
        raise ValueError(f"netlogger line missing mandatory fields {sorted(missing)}: {line!r}")
    return out


def write_netlogger_log(log: TransferLog, path: str | os.PathLike) -> None:
    """Write every row of ``log`` as netlogger-style lines."""
    with open(path, "w", encoding="ascii") as fh:
        for lo in range(0, len(log), _WRITE_BATCH_ROWS):
            hi = min(lo + _WRITE_BATCH_ROWS, len(log))
            fh.writelines(
                line + "\n" for line in format_netlogger_lines(log, lo, hi)
            )


def read_netlogger_log(path: str | os.PathLike | Iterable[str]) -> TransferLog:
    """Read a netlogger-style log file (or iterable of lines)."""
    if isinstance(path, (str, os.PathLike)):
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    else:
        lines = list(path)
    rows = [parse_netlogger_line(ln) for ln in lines if ln.strip()]
    if not rows:
        return TransferLog()
    from .records import _SCHEMA  # local import: private schema for defaults

    # assemble columns in schema order (NOT a set union over row keys,
    # whose iteration order varies with the process hash seed): rows may
    # carry heterogeneous key subsets, so take every field any row has
    # and fill gaps with the schema default
    present = {field for r in rows for field in r}
    cols: dict[str, list] = {
        field: [r.get(field, default) for r in rows]
        for field, (_dtype, default) in _SCHEMA.items()
        if field in present
    }
    return TransferLog(cols)
