"""SNMP-style per-interface byte counters (30-second bins).

ESnet routers count bytes in and out of every interface on a 30 s cadence
(Section VII-C); the paper joins those counters against GridFTP transfer
intervals via Eq. (1).  :class:`SnmpCounter` reproduces the counter side:
bytes moved over an interval are spread uniformly across the bins the
interval overlaps — exactly the fluid view a byte counter of a steady
flow would report.

Deposit contract: ``add_bytes(t_start, t_end, nbytes)`` refuses negative
bytes, a reversed interval and a start before the counter's epoch
(``ValueError``, nothing recorded).  Otherwise bin ``k`` gains ``nbytes``
times the share of ``[t_start, t_end]`` that falls inside it, and an
instantaneous deposit lands whole in its bin.  Zero bytes record nothing
on a counter, but :meth:`SnmpCollector.add_bytes` still registers every
link it is given, so the collector's key order is the order links were
first named.  The collector splits an interval into bins once per call,
not once per link, and reuses the split while consecutive calls share an
interval — as every flow settled by one simulator advance does.

A counter's bins live in an ``array('d')`` with a NumPy view over the
same memory.  Most deposits land in one bin, and there ``bins[k] += x``
on the array is a plain float add, the same IEEE operation as on an
``ndarray`` without building NumPy scalars; a span of several bins is
one vectorized add through the view.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable

import numpy as np

__all__ = ["SnmpCounter", "SnmpCollector"]


def _check_bytes(nbytes: float) -> None:
    if nbytes < 0:
        raise ValueError("byte count must be non-negative")


def _split(
    t0: float, bin_seconds: float, t_start: float, t_end: float
) -> tuple[int, int, float | np.ndarray]:
    """Check ``[t_start, t_end]`` and split it into bins.

    Returns ``(k_first, k_last, frac)``: the interval's share of each bin
    from ``k_first`` to ``k_last``, a float for one bin and an array for
    a longer span.
    """
    if t_end < t_start:
        raise ValueError("t_end must be >= t_start")
    if t_start < t0:
        raise ValueError(f"deposit at {t_start} precedes counter epoch {t0}")
    k_first = int((t_start - t0) // bin_seconds)
    if t_end == t_start:
        return k_first, k_first, 1.0
    k_last = max(int(math.ceil((t_end - t0) / bin_seconds)) - 1, k_first)
    # distribute by overlap *fraction* rather than via a byte rate: a
    # sub-normal duration would overflow nbytes / duration to inf
    if k_last == k_first:
        lo = max(t0 + k_first * bin_seconds, t_start)
        hi = min(t0 + (k_first + 1) * bin_seconds, t_end)
        return k_first, k_last, max(hi - lo, 0.0) / (t_end - t_start)
    edges = t0 + np.arange(k_first, k_last + 2) * bin_seconds
    lo = np.maximum(edges[:-1], t_start)
    hi = np.minimum(edges[1:], t_end)
    return k_first, k_last, np.clip(hi - lo, 0.0, None) / (t_end - t_start)


class SnmpCounter:
    """Byte counter of one interface, binned at a fixed cadence.

    Bins are addressed by index ``k`` covering ``[t0 + k*bin_seconds,
    t0 + (k+1)*bin_seconds)``.  Storage grows lazily with the largest bin
    touched, so long idle tails cost nothing until traffic arrives.
    """

    __slots__ = ("t0", "bin_seconds", "_counts", "_view")

    def __init__(self, t0: float = 0.0, bin_seconds: float = 30.0) -> None:
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        self.t0 = float(t0)
        self.bin_seconds = float(bin_seconds)
        #: the bins, and a float64 view of the same memory
        self._counts = array("d")
        self._view = np.frombuffer(self._counts, dtype=np.float64)

    def __reduce__(self):
        # the view must alias the copied bins, not copy them separately
        return _counter_from_bins, (self.t0, self.bin_seconds, self._counts)

    def _grow(self, k_last: int) -> array:
        """Extend the bins through ``k_last``: at least double, at least 64."""
        size = len(self._counts)
        grown = array("d", self._counts)
        grown.frombytes(bytes(8 * (max(k_last + 1, 2 * size, 64) - size)))
        self._counts = grown
        self._view = np.frombuffer(grown, dtype=np.float64)
        return grown

    def _deposit(self, k_first: int, k_last: int, add: float | np.ndarray) -> None:
        """Add bytes times a :func:`_split`'s shares to bins ``k_first..k_last``."""
        counts = self._counts
        if k_last >= len(counts):
            counts = self._grow(k_last)
        if k_first == k_last:
            counts[k_first] += add
        else:
            self._view[k_first : k_last + 1] += add

    def add_bytes(self, t_start: float, t_end: float, nbytes: float) -> None:
        """Record ``nbytes`` moved uniformly over ``[t_start, t_end]``.

        An instantaneous deposit (``t_end == t_start``) lands entirely in
        the containing bin.  Times before ``t0`` are rejected — the
        counter cannot back-date.
        """
        _check_bytes(nbytes)
        k_first, k_last, frac = _split(self.t0, self.bin_seconds, t_start, t_end)
        if nbytes != 0:
            self._deposit(k_first, k_last, nbytes * frac)

    @property
    def n_bins(self) -> int:
        """Index one past the last touched bin."""
        nz = np.flatnonzero(self._view)
        return int(nz[-1]) + 1 if nz.size else 0

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """(bin start times, byte counts) over all bins up to the last touched."""
        n = self.n_bins
        starts = self.t0 + np.arange(n) * self.bin_seconds
        return starts, self._view[:n].copy()

    def total_bytes(self) -> float:
        return float(self._view.sum())

    def utilization(self, capacity_bps: float) -> np.ndarray:
        """Per-bin link utilization fraction given ``capacity_bps``."""
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        _, counts = self.series()
        return counts * 8.0 / (self.bin_seconds * capacity_bps)


class SnmpCollector:
    """SNMP counters for a set of interfaces (one per link key).

    The experiment deposits bytes per link; :meth:`export` renders the
    collection in the ``{name: (bin_starts, counts)}`` shape that
    :mod:`repro.core.snmp_correlation` consumes.  Every counter shares the
    collector's epoch and cadence, so one split of an interval serves
    them all.
    """

    def __init__(self, t0: float = 0.0, bin_seconds: float = 30.0) -> None:
        self.t0 = float(t0)
        self.bin_seconds = float(bin_seconds)
        self._counters: dict[tuple[str, str], SnmpCounter] = {}
        #: (t_start, t_end, split) of the previous deposit
        self._last_split: tuple[float, float, tuple] | None = None

    def counter(self, key: tuple[str, str]) -> SnmpCounter:
        """The counter for link ``key``, created on first touch."""
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = SnmpCounter(self.t0, self.bin_seconds)
        return counter

    def add_bytes(
        self,
        links: Iterable[tuple[str, str]],
        t_start: float,
        t_end: float,
        nbytes: float,
    ) -> None:
        """Deposit the same bytes on every link of a path."""
        _check_bytes(nbytes)
        last = self._last_split
        if last is not None and last[0] == t_start and last[1] == t_end:
            k_first, k_last, frac = last[2]
        else:
            split = _split(self.t0, self.bin_seconds, t_start, t_end)
            self._last_split = (t_start, t_end, split)
            k_first, k_last, frac = split
        add = nbytes * frac
        if k_first == k_last and nbytes != 0:
            # the common case: one bin on every link, a plain float add
            counters = self._counters
            for key in links:
                try:
                    counts = counters[key]._counts
                    counts[k_first] += add
                except (KeyError, IndexError):  # a new link, or bins to grow
                    self.counter(key)._deposit(k_first, k_last, add)
            return
        for key in links:
            counter = self.counter(key)
            if nbytes != 0:
                counter._deposit(k_first, k_last, add)

    def keys(self) -> list[tuple[str, str]]:
        return list(self._counters)

    def export(
        self, keys: Iterable[tuple[str, str]] | None = None
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Series per link, named ``u--v``, for the correlation analysis."""
        keys = list(keys) if keys is not None else self.keys()
        return {f"{u}--{v}": self.counter((u, v)).series() for u, v in keys}


def _counter_from_bins(t0: float, bin_seconds: float, counts: array) -> SnmpCounter:
    """Rebuild a pickled or copied :class:`SnmpCounter` around ``counts``."""
    counter = SnmpCounter(t0, bin_seconds)
    counter._counts = counts
    counter._view = np.frombuffer(counts, dtype=np.float64)
    return counter
