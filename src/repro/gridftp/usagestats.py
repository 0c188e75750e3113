"""The Globus usage-stats collection path: UDP packets to a central collector.

Section II of the paper: "GridFTP servers send usage statistics in UDP
packets at the end of each transfer to a server maintained by the Globus
organization ... the IP address/domain name of the other end of the
transfer is not listed for privacy reasons."  This module reproduces that
pipeline, because it is one of the two ways the paper's datasets were
procured (the other being local server logs):

* :func:`encode_packet` / :func:`decode_packet` — a compact binary packet
  per completed transfer (struct-packed, versioned, checksummed);
* :class:`UsageStatsSender` — the server side: emits one packet per
  transfer, *omitting the remote endpoint*;
* :class:`UsageStatsCollector` — the Globus side: ingests packets
  (tolerating loss, duplication and reordering — it is UDP) and
  reassembles a :class:`~repro.gridftp.records.TransferLog`;
* :func:`simulate_collection` — push a log through a lossy channel and
  return what the collector would have recorded.

The reassembled log is inherently anonymized, which is exactly why the
paper could not do session analysis on the NERSC feed.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib

import numpy as np

from ..core.rng import ensure_rng
from .records import ANONYMIZED_HOST, TransferLog, TransferRecord, TransferType

__all__ = [
    "PACKET_VERSION",
    "encode_packet",
    "decode_packet",
    "PacketError",
    "UsageStatsSender",
    "UsageStatsCollector",
    "simulate_collection",
]

#: Usage-stats packet format version emitted by this implementation.
PACKET_VERSION = 1

# Wire layout (network byte order):
#   magic     2s   b"GF"
#   version   B
#   flags     B    bit 0: STOR (else RETR)
#   start     d    seconds since epoch
#   duration  d    seconds
#   nbytes    d    transfer size
#   streams   H
#   stripes   H
#   buffer    Q    TCP buffer bytes
#   block     Q    block size bytes
#   host      i    reporting (local) host id
#   seq       I    per-sender sequence number (duplicate detection)
#   crc32     I    checksum over everything above
_WIRE = struct.Struct("!2sBBdddHHQQiII")
_FLAG_STOR = 0x01
_MAGIC = b"GF"


class PacketError(ValueError):
    """Raised when a usage-stats packet cannot be decoded."""


def encode_packet(record: TransferRecord, seq: int = 0) -> bytes:
    """Serialize one transfer into a usage-stats UDP payload.

    The remote host is deliberately not encoded — the privacy property of
    the real collector.
    """
    if not 0 <= seq < 2**32:
        raise ValueError("sequence number out of range")
    flags = _FLAG_STOR if record.transfer_type is TransferType.STOR else 0
    body = _WIRE.pack(
        _MAGIC,
        PACKET_VERSION,
        flags,
        record.start,
        record.duration,
        record.size,
        record.streams,
        record.stripes,
        record.tcp_buffer,
        record.block_size,
        record.local_host,
        seq,
        0,  # placeholder checksum
    )
    crc = zlib.crc32(body[:-4]) & 0xFFFFFFFF
    return body[:-4] + struct.pack("!I", crc)


def decode_packet(payload: bytes) -> tuple[TransferRecord, int]:
    """Parse a usage-stats payload; returns (record, sequence number).

    Raises :class:`PacketError` on truncation, bad magic, unsupported
    version, or checksum mismatch.
    """
    if len(payload) != _WIRE.size:
        raise PacketError(f"bad packet length {len(payload)}, want {_WIRE.size}")
    (
        magic, version, flags, start, duration, nbytes,
        streams, stripes, buffer_, block, host, seq, crc,
    ) = _WIRE.unpack(payload)
    if magic != _MAGIC:
        raise PacketError(f"bad magic {magic!r}")
    if version != PACKET_VERSION:
        raise PacketError(f"unsupported version {version}")
    expect = zlib.crc32(payload[:-4]) & 0xFFFFFFFF
    if crc != expect:
        raise PacketError("checksum mismatch (corrupted packet)")
    record = TransferRecord(
        start=start,
        duration=duration,
        size=nbytes,
        transfer_type=TransferType.STOR if flags & _FLAG_STOR else TransferType.RETR,
        streams=streams,
        stripes=stripes,
        tcp_buffer=buffer_,
        block_size=block,
        local_host=host,
        remote_host=ANONYMIZED_HOST,
    )
    return record, seq


class UsageStatsSender:
    """The server-side emitter: one packet per completed transfer.

    Administrators may disable reporting (``enabled=False``), as the paper
    notes some sites do — the collector then simply never hears from them.
    """

    def __init__(self, host_id: int, enabled: bool = True) -> None:
        self.host_id = host_id
        self.enabled = enabled
        self._seq = 0

    def packet_for(self, record: TransferRecord) -> bytes | None:
        """The payload to send for ``record``, or None when disabled."""
        if not self.enabled:
            return None
        rec = dataclasses.replace(record, local_host=self.host_id)
        payload = encode_packet(rec, seq=self._seq)
        self._seq = (self._seq + 1) % 2**32
        return payload

    def emit_log(self, log: TransferLog) -> list[bytes]:
        """Packets for every row of ``log`` (empty when disabled).

        Columnar bulk path: byte-identical to calling :meth:`packet_for`
        row by row (same wire layout, same sequence numbers), without
        materializing a :class:`TransferRecord` per row.
        """
        if not self.enabled:
            return []
        payloads = _pack_rows(
            log,
            local_host=[self.host_id] * len(log),
            seq=[(self._seq + i) % 2**32 for i in range(len(log))],
        )
        self._seq = (self._seq + len(log)) % 2**32
        return payloads


def _pack_rows(log: TransferLog, local_host, seq) -> list[bytes]:
    """Encode every row of ``log`` columnarly; the bulk twin of
    :func:`encode_packet`.

    ``local_host`` and ``seq`` are per-row sequences (the sender
    substitutes its own host id, exactly as :meth:`UsageStatsSender.packet_for`
    does via ``dataclasses.replace``).  One ``tolist()`` per column up
    front; the loop packs plain Python scalars.
    """
    flags = np.where(
        log.transfer_type == int(TransferType.STOR), _FLAG_STOR, 0
    ).tolist()
    rows = zip(
        flags,
        log.start.tolist(),
        log.duration.tolist(),
        log.size.tolist(),
        log.streams.tolist(),
        log.stripes.tolist(),
        log.column("tcp_buffer").tolist(),
        log.column("block_size").tolist(),
        local_host,
        seq,
    )
    pack = _WIRE.pack
    crc32 = zlib.crc32
    pack_crc = struct.Struct("!I").pack
    out = []
    for fl, start, dur, size, streams, stripes, buf, blk, host, sq in rows:
        body = pack(
            _MAGIC, PACKET_VERSION, fl, start, dur, size,
            streams, stripes, buf, blk, host, sq, 0,
        )[:-4]
        out.append(body + pack_crc(crc32(body) & 0xFFFFFFFF))
    return out


class UsageStatsCollector:
    """The Globus-side collector: UDP-tolerant packet ingestion.

    Duplicate (host, seq) pairs are dropped; malformed packets are counted
    and discarded; ordering does not matter (the log is rebuilt sorted).
    """

    def __init__(self) -> None:
        self._records: list[TransferRecord] = []
        self._seen: set[tuple[int, int]] = set()
        self.n_duplicates = 0
        self.n_malformed = 0

    def ingest(self, payload: bytes) -> bool:
        """Process one datagram; returns True when a new record was stored."""
        try:
            record, seq = decode_packet(payload)
        except PacketError:
            self.n_malformed += 1
            return False
        key = (record.local_host, seq)
        if key in self._seen:
            self.n_duplicates += 1
            return False
        self._seen.add(key)
        self._records.append(record)
        return True

    @property
    def n_records(self) -> int:
        return len(self._records)

    def to_log(self) -> TransferLog:
        """The reassembled (anonymized, time-sorted) transfer log."""
        return TransferLog.from_records(
            sorted(self._records, key=lambda r: r.start)
        )


def simulate_collection(
    log: TransferLog,
    loss_rate: float = 0.0,
    duplicate_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[TransferLog, UsageStatsCollector]:
    """Push ``log`` through a lossy UDP channel into a collector.

    Returns the reassembled log and the collector (whose counters tell you
    what the channel did).  Loss silently drops packets — the fundamental
    caveat of usage-stats datasets: the collector cannot know what it
    never received.
    """
    for rate in (loss_rate, duplicate_rate, corrupt_rate):
        if not 0.0 <= rate < 1.0:
            raise ValueError("rates must be in [0, 1)")
    rng = ensure_rng(rng)
    collector = UsageStatsCollector()
    # per-host sequence numbers (one virtual sender per local host),
    # computed columnarly: row i's seq is the count of earlier rows with
    # the same local_host — exactly what per-row senders would assign
    hosts = log.local_host
    n = len(log)
    order = np.argsort(hosts, kind="stable")
    sorted_hosts = hosts[order]
    head = np.empty(n, dtype=bool)
    if n:
        head[0] = True
        head[1:] = sorted_hosts[1:] != sorted_hosts[:-1]
    group_first = np.flatnonzero(head)
    group_len = np.diff(np.append(group_first, n))
    seqs = np.empty(n, dtype=np.int64)
    seqs[order] = np.arange(n) - np.repeat(group_first, group_len)
    payloads = _pack_rows(log, hosts.tolist(), seqs.tolist())
    # channel draws stay per-row and in row order, so a seeded rng
    # reproduces the exact fault pattern of the old per-record loop
    for payload in payloads:
        if rng.random() < loss_rate:
            continue  # dropped in flight
        if rng.random() < corrupt_rate:
            # flip a byte somewhere in the body
            pos = int(rng.integers(0, len(payload)))
            payload = payload[:pos] + bytes([payload[pos] ^ 0xFF]) + payload[pos + 1:]
        collector.ingest(payload)
        if rng.random() < duplicate_rate:
            collector.ingest(payload)
    return collector.to_log(), collector
