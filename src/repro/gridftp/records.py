"""Transfer records and the column-oriented transfer log.

The GridFTP usage logger records one entry per file moved (Section II of
the paper): transfer type (STOR/RETR), size in bytes, start time, duration,
server host, number of parallel TCP streams, number of stripes, TCP buffer
size and block size.  The remote endpoint is logged by local server logs
(NCAR, SLAC) but anonymized in usage-stats feeds (NERSC).

Analyses in :mod:`repro.core` operate on hundreds of thousands to millions
of records (the SLAC--BNL dataset has 1,021,999 transfers), so the log is
stored column-oriented as NumPy arrays rather than as a list of objects.
:class:`TransferRecord` is the scalar row view used at API boundaries and
by the simulator when emitting one transfer at a time.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

__all__ = [
    "TransferType",
    "TransferRecord",
    "TransferLog",
    "TransferLogBuilder",
    "ANONYMIZED_HOST",
]

#: Sentinel host id used when the remote endpoint was anonymized
#: (the NERSC usage-stats situation described in Section V).
ANONYMIZED_HOST = -1


class TransferType(enum.IntEnum):
    """Direction of a transfer relative to the logging server.

    ``STOR`` means the logging server received (stored) the file;
    ``RETR`` means it sent (retrieved) the file to the remote end.
    """

    STOR = 0
    RETR = 1

    @classmethod
    def parse(cls, text: str) -> "TransferType":
        """Parse a log token such as ``"STOR"`` or ``"retrieve"``."""
        t = text.strip().upper()
        if t in ("STOR", "STORE", "S"):
            return cls.STOR
        if t in ("RETR", "RETRIEVE", "R"):
            return cls.RETR
        raise ValueError(f"unknown transfer type: {text!r}")


# Column schema: name -> (dtype, default).  Order is the canonical column
# order used by the text log format and by structured-array export.
_SCHEMA: dict[str, tuple[np.dtype, Any]] = {
    "start": (np.dtype(np.float64), 0.0),  # seconds since epoch (UTC)
    "duration": (np.dtype(np.float64), 0.0),  # seconds
    "size": (np.dtype(np.float64), 0.0),  # bytes
    "transfer_type": (np.dtype(np.int8), int(TransferType.RETR)),
    "streams": (np.dtype(np.int32), 1),  # parallel TCP streams
    "stripes": (np.dtype(np.int32), 1),  # striping width
    "tcp_buffer": (np.dtype(np.int64), 0),  # bytes, 0 = autotuned
    "block_size": (np.dtype(np.int64), 262144),  # bytes
    "local_host": (np.dtype(np.int32), 0),  # host id (see repro.net.topology)
    "remote_host": (np.dtype(np.int32), ANONYMIZED_HOST),
}


@dataclasses.dataclass(frozen=True, slots=True)
class TransferRecord:
    """A single GridFTP transfer log entry (one file).

    Attributes mirror the fields the Globus usage logger reports.  Hosts
    are integer ids; :data:`ANONYMIZED_HOST` marks a scrubbed remote end.
    """

    start: float
    duration: float
    size: float
    transfer_type: TransferType = TransferType.RETR
    streams: int = 1
    stripes: int = 1
    tcp_buffer: int = 0
    block_size: int = 262144
    local_host: int = 0
    remote_host: int = ANONYMIZED_HOST

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative transfer size: {self.size}")
        if self.duration < 0:
            raise ValueError(f"negative transfer duration: {self.duration}")
        if self.streams < 1:
            raise ValueError(f"streams must be >= 1, got {self.streams}")
        if self.stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {self.stripes}")

    @property
    def end(self) -> float:
        """End time of the transfer, in seconds since epoch."""
        return self.start + self.duration

    @property
    def throughput_bps(self) -> float:
        """Application-level throughput in bits per second.

        Zero-duration transfers (sub-resolution log entries) report 0.0
        rather than raising; the analysis layer filters them explicitly.
        """
        if self.duration <= 0.0:
            return 0.0
        return self.size * 8.0 / self.duration


class TransferLog:
    """Column-oriented collection of transfer records.

    Wraps one NumPy array per logged field, so the million-row analyses
    (binning, session grouping, quantiles) run as vectorized kernels.
    The log is not required to be time-sorted on construction; call
    :meth:`sorted_by_start` where an analysis needs ordering.

    Parameters
    ----------
    columns:
        Mapping from column name to array-like.  All columns must share a
        common length.  Missing columns are filled with schema defaults;
        unknown columns are rejected.
    """

    __slots__ = ("_cols",)

    def __init__(self, columns: Mapping[str, Any] | None = None) -> None:
        columns = dict(columns or {})
        unknown = set(columns) - set(_SCHEMA)
        if unknown:
            raise KeyError(f"unknown transfer-log columns: {sorted(unknown)}")
        n = None
        for name, values in columns.items():
            arr = np.asarray(values)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D, got shape {arr.shape}")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ValueError(
                    f"column {name!r} has length {arr.shape[0]}, expected {n}"
                )
        if n is None:
            n = 0
        self._cols: dict[str, np.ndarray] = {}
        for name, (dtype, default) in _SCHEMA.items():
            if name in columns:
                self._cols[name] = np.asarray(columns[name]).astype(dtype, copy=False)
            else:
                self._cols[name] = np.full(n, default, dtype=dtype)
        self._validate()

    def _validate(self) -> None:
        if np.any(self._cols["size"] < 0):
            raise ValueError("transfer log contains negative sizes")
        if np.any(self._cols["duration"] < 0):
            raise ValueError("transfer log contains negative durations")
        if len(self) and (
            np.any(self._cols["streams"] < 1) or np.any(self._cols["stripes"] < 1)
        ):
            raise ValueError("streams and stripes must be >= 1")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[TransferRecord]) -> "TransferLog":
        """Build a log from an iterable of :class:`TransferRecord`."""
        records = list(records)
        cols: dict[str, list] = {name: [] for name in _SCHEMA}
        for rec in records:
            for name in _SCHEMA:
                cols[name].append(getattr(rec, name))
        return cls(cols)

    @classmethod
    def concatenate(cls, logs: Sequence["TransferLog"]) -> "TransferLog":
        """Concatenate several logs into one (column-wise ``np.concatenate``)."""
        if not logs:
            return cls()
        return cls(
            {
                name: np.concatenate([lg._cols[name] for lg in logs])
                for name in _SCHEMA
            }
        )

    #: short alias used by the streaming pipeline
    concat = concatenate

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return int(self._cols["start"].shape[0])

    @property
    def nbytes(self) -> int:
        """Total bytes held by the column arrays (the log's memory footprint)."""
        return int(sum(col.nbytes for col in self._cols.values()))

    def __iter__(self) -> Iterator[TransferRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransferLog):
            return NotImplemented
        return all(
            np.array_equal(self._cols[name], other._cols[name]) for name in _SCHEMA
        )

    def __repr__(self) -> str:
        return f"TransferLog(n={len(self)})"

    def record(self, i: int) -> TransferRecord:
        """Materialize row ``i`` as a :class:`TransferRecord`."""
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        return TransferRecord(
            start=float(self._cols["start"][i]),
            duration=float(self._cols["duration"][i]),
            size=float(self._cols["size"][i]),
            transfer_type=TransferType(int(self._cols["transfer_type"][i])),
            streams=int(self._cols["streams"][i]),
            stripes=int(self._cols["stripes"][i]),
            tcp_buffer=int(self._cols["tcp_buffer"][i]),
            block_size=int(self._cols["block_size"][i]),
            local_host=int(self._cols["local_host"][i]),
            remote_host=int(self._cols["remote_host"][i]),
        )

    # -- column access -------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """Return the underlying array for ``name`` (a view, do not mutate)."""
        return self._cols[name]

    @property
    def start(self) -> np.ndarray:
        return self._cols["start"]

    @property
    def duration(self) -> np.ndarray:
        return self._cols["duration"]

    @property
    def size(self) -> np.ndarray:
        return self._cols["size"]

    @property
    def streams(self) -> np.ndarray:
        return self._cols["streams"]

    @property
    def stripes(self) -> np.ndarray:
        return self._cols["stripes"]

    @property
    def local_host(self) -> np.ndarray:
        return self._cols["local_host"]

    @property
    def remote_host(self) -> np.ndarray:
        return self._cols["remote_host"]

    @property
    def transfer_type(self) -> np.ndarray:
        return self._cols["transfer_type"]

    @property
    def end(self) -> np.ndarray:
        """Per-transfer end times (``start + duration``)."""
        return self._cols["start"] + self._cols["duration"]

    @property
    def throughput_bps(self) -> np.ndarray:
        """Per-transfer throughput in bits per second (0 where duration is 0)."""
        dur = self._cols["duration"]
        out = np.zeros_like(dur)
        np.divide(
            self._cols["size"] * 8.0, dur, out=out, where=dur > 0.0
        )
        return out

    # -- transforms ----------------------------------------------------------

    def select(self, mask: np.ndarray) -> "TransferLog":
        """Return a new log containing rows where ``mask`` is true.

        ``mask`` may be a boolean mask or an integer index array; fancy
        indexing copies so the result is independent of this log.
        """
        return TransferLog({name: col[mask] for name, col in self._cols.items()})

    def sorted_by_start(self) -> "TransferLog":
        """Return a copy sorted by start time (stable sort)."""
        order = np.argsort(self._cols["start"], kind="stable")
        return self.select(order)

    def shift_time(self, offset: float) -> "TransferLog":
        """Return a copy with every start time shifted by ``offset`` seconds.

        Durations (and therefore end times relative to starts) are
        unchanged; the streaming generator uses this to lay independently
        generated blocks out on a common timeline.
        """
        cols = dict(self._cols)
        cols["start"] = self._cols["start"] + float(offset)
        return TransferLog(cols)

    def to_structured(self) -> np.ndarray:
        """Export as a NumPy structured array (one compound dtype row per transfer)."""
        dtype = np.dtype([(name, spec[0]) for name, spec in _SCHEMA.items()])
        out = np.empty(len(self), dtype=dtype)
        for name in _SCHEMA:
            out[name] = self._cols[name]
        return out

    @classmethod
    def from_structured(cls, arr: np.ndarray) -> "TransferLog":
        """Inverse of :meth:`to_structured`."""
        return cls({name: arr[name] for name in arr.dtype.names or ()})

    def anonymize_remote(self) -> "TransferLog":
        """Scrub the remote-host column, as NERSC's usage feed does.

        Session grouping requires the remote endpoint, so an anonymized log
        supports only throughput-style analyses — exactly the situation the
        paper faced with the NERSC datasets (Section V).
        """
        cols = dict(self._cols)
        cols["remote_host"] = np.full(len(self), ANONYMIZED_HOST, dtype=np.int32)
        return TransferLog(cols)

    @property
    def is_anonymized(self) -> bool:
        """True when every remote endpoint has been scrubbed."""
        return bool(len(self)) and bool(
            np.all(self._cols["remote_host"] == ANONYMIZED_HOST)
        )

    def pairs(self) -> np.ndarray:
        """Distinct (local_host, remote_host) pairs appearing in the log."""
        stacked = np.stack([self._cols["local_host"], self._cols["remote_host"]], axis=1)
        return np.unique(stacked, axis=0) if len(self) else stacked.reshape(0, 2)

    def for_pair(self, local_host: int, remote_host: int) -> "TransferLog":
        """Rows between one (local, remote) server pair — one *path* in paper terms."""
        mask = (self._cols["local_host"] == local_host) & (
            self._cols["remote_host"] == remote_host
        )
        return self.select(mask)


class TransferLogBuilder:
    """Incremental columnar accumulator for building logs chunk by chunk.

    The streaming data plane appends generated blocks and pops fixed-size
    chunks off the front, so its working set stays O(chunk + block) no
    matter how many transfers flow through.  Appends go into preallocated
    per-column arrays that double on overflow (amortized O(1) per row);
    :meth:`split_off` shifts the remainder down in place.

    Not thread-safe; one builder per stream.
    """

    __slots__ = ("_cols", "_n", "_capacity")

    def __init__(self, capacity: int = 0) -> None:
        self._capacity = max(int(capacity), 0)
        self._n = 0
        self._cols: dict[str, np.ndarray] = {
            name: np.empty(self._capacity, dtype=spec[0])
            for name, spec in _SCHEMA.items()
        }

    def __len__(self) -> int:
        return self._n

    @property
    def nbytes(self) -> int:
        """Bytes currently held by the column buffers (capacity, not fill)."""
        return int(sum(col.nbytes for col in self._cols.values()))

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        if need <= self._capacity:
            return
        new_cap = max(self._capacity * 2, need, 1024)
        for name, col in self._cols.items():
            grown = np.empty(new_cap, dtype=col.dtype)
            grown[: self._n] = col[: self._n]
            self._cols[name] = grown
        self._capacity = new_cap

    def append_log(self, log: TransferLog) -> None:
        """Append every row of ``log`` (columnar, no per-row objects)."""
        k = len(log)
        if k == 0:
            return
        self._reserve(k)
        for name in _SCHEMA:
            self._cols[name][self._n : self._n + k] = log.column(name)
        self._n += k

    def split_off(self, k: int) -> TransferLog:
        """Remove and return the first ``min(k, len(self))`` rows as a log.

        The remaining rows shift to the front of the buffers, so repeated
        ``append_log``/``split_off`` cycles never grow beyond the largest
        transient fill.
        """
        if k <= 0:
            return TransferLog()
        k = min(int(k), self._n)
        out = TransferLog({name: col[:k].copy() for name, col in self._cols.items()})
        rest = self._n - k
        for col in self._cols.values():
            col[:rest] = col[k : self._n]
        self._n = rest
        return out

    def build(self) -> TransferLog:
        """A :class:`TransferLog` of everything appended so far (a copy)."""
        return TransferLog(
            {name: col[: self._n].copy() for name, col in self._cols.items()}
        )
