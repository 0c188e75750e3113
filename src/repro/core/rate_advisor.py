"""Circuit-rate estimation from transfer history.

Section VII's second motivation for the factor analysis: "provide a
mechanism for the data transfer application to estimate the rate and
duration it should specify when requesting a virtual circuit based on
values chosen for parameters such as number of stripes, number of
streams, etc."

:class:`RateAdvisor` learns empirical throughput quantiles from a
historical log, conditioned on the knobs the factor analysis found to
matter — host pair, stripe count, stream group, and file-size band — and
answers: for this upcoming session (file sizes, stripes, streams), what
rate should the createReservation message carry, and for how long?

The rate choice is a quantile trade-off the Ext-RateChoice bench sweeps:

* request a **high** quantile → the circuit rarely throttles the transfer
  but wastes reserved capacity and blocks other reservations;
* request a **low** quantile → high admission odds, but the guarantee
  itself becomes the bottleneck.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

from ..gridftp.records import TransferLog

__all__ = ["RateAdvisor", "CircuitAdvice"]

#: File-size band edges (bytes) used for conditioning; the bands mirror
#: the regimes of Figs. 3-4 (ramp-limited, transition, steady-state).
_SIZE_BANDS = (0.0, 50e6, 500e6, 5e9, np.inf)


def _band_of(size: float) -> int:
    return bisect.bisect_right(_SIZE_BANDS, size) - 1


@dataclasses.dataclass(frozen=True)
class CircuitAdvice:
    """What to put in the createReservation message for one session."""

    rate_bps: float
    duration_s: float
    #: number of historical observations the estimate rests on
    support: int
    #: the conditioning cell that supplied the quantile (for audit)
    cell: tuple

    @property
    def reservation_bytes(self) -> float:
        """Capacity-time product claimed, in byte units (for cost ablations)."""
        return self.rate_bps * self.duration_s / 8.0


class RateAdvisor:
    """Empirical conditional throughput quantiles over a historical log.

    Estimation cells are (local, remote, stripes, stream-group,
    size-band); cells fall back to coarser aggregations when thin:
    drop the pair, then the stripes, then everything (global quantile).
    """

    #: minimum samples before a cell is trusted
    MIN_SUPPORT = 20

    def __init__(self, history: TransferLog) -> None:
        ok = history.duration > 0
        self._tput = history.throughput_bps[ok]
        if self._tput.size == 0:
            raise ValueError("history log has no usable transfers")
        self._keys = {
            "pair": np.stack(
                [history.local_host[ok], history.remote_host[ok]], axis=1
            ),
            "stripes": history.stripes[ok],
            "streams8": (history.streams[ok] >= 4).astype(np.int8),
            "band": np.fromiter(
                (_band_of(s) for s in history.size[ok]),
                dtype=np.int8,
                count=int(ok.sum()),
            ),
        }

    # -- conditional quantiles ----------------------------------------------

    def _mask_for(
        self,
        local: int | None,
        remote: int | None,
        stripes: int | None,
        streams: int | None,
        band: int | None,
    ) -> np.ndarray:
        mask = np.ones(self._tput.size, dtype=bool)
        if local is not None:
            mask &= self._keys["pair"][:, 0] == local
        if remote is not None:
            mask &= self._keys["pair"][:, 1] == remote
        if stripes is not None:
            mask &= self._keys["stripes"] == stripes
        if streams is not None:
            mask &= self._keys["streams8"] == (1 if streams >= 4 else 0)
        if band is not None:
            mask &= self._keys["band"] == band
        return mask

    def conditional_quantile(
        self,
        q: float,
        local: int | None = None,
        remote: int | None = None,
        stripes: int | None = None,
        streams: int | None = None,
        size: float | None = None,
    ) -> tuple[float, int, tuple]:
        """Throughput quantile with automatic coarsening of thin cells.

        Returns (value_bps, support, cell-descriptor).
        """
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        # a count below 1, or a size outside every band, matches no cell
        # and would quietly fall back to the global quantile
        if stripes is not None and stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {stripes}")
        if streams is not None and streams < 1:
            raise ValueError(f"streams must be >= 1, got {streams}")
        if size is not None and not 0.0 <= size < math.inf:
            raise ValueError(f"size must be >= 0 and finite, got {size}")
        band = _band_of(size) if size is not None else None
        # fallback ladder: full cell -> drop pair -> drop stripes -> global
        ladder = [
            (local, remote, stripes, streams, band),
            (None, None, stripes, streams, band),
            (None, None, None, streams, band),
            (None, None, None, None, None),
        ]
        for cell in ladder:
            mask = self._mask_for(*cell)
            n = int(mask.sum())
            if n >= self.MIN_SUPPORT or cell == ladder[-1]:
                if n == 0:
                    break
                value = float(np.quantile(self._tput[mask], q))
                return value, n, cell
        # unreachable unless history was empty, which __init__ rejects
        raise RuntimeError("no historical data for any cell")

    # -- the application-facing question ------------------------------------

    def advise(
        self,
        session_bytes: float,
        local: int | None = None,
        remote: int | None = None,
        stripes: int = 1,
        streams: int = 8,
        rate_quantile: float = 0.75,
        safety_factor: float = 1.25,
    ) -> CircuitAdvice:
        """Rate and duration to request for a session of ``session_bytes``.

        The rate is the conditional throughput quantile (default Q3 — the
        same optimistic statistic the paper's Table IV methodology uses);
        the duration is the session's transfer time at that rate, padded
        by ``safety_factor`` so a mildly slow session does not outlive its
        reservation.
        """
        # negated comparisons, so NaN is refused too
        if not 0.0 < session_bytes < math.inf:
            raise ValueError(
                f"session size must be positive and finite, got {session_bytes}")
        if not 1.0 <= safety_factor < math.inf:
            raise ValueError(
                f"safety factor must be >= 1 and finite, got {safety_factor}")
        # condition on the session's dominant size scale: bytes per file
        # are unknown here, so use the session size directly for banding —
        # large sessions are dominated by their large files
        rate, support, cell = self.conditional_quantile(
            rate_quantile,
            local=local,
            remote=remote,
            stripes=stripes,
            streams=streams,
            size=session_bytes,
        )
        duration = session_bytes * 8.0 / rate * safety_factor
        return CircuitAdvice(
            rate_bps=rate, duration_s=duration, support=support, cell=cell
        )

    def outcome_against(
        self, advice: CircuitAdvice, actual_throughput_bps: float
    ) -> dict:
        """Score one piece of advice against what actually happened.

        ``throttled`` means the circuit rate was below what the transfer
        could have achieved; ``waste_fraction`` is the share of reserved
        capacity-time the transfer did not use.
        """
        throttled = actual_throughput_bps > advice.rate_bps
        used = min(actual_throughput_bps, advice.rate_bps)
        waste = 1.0 - used / advice.rate_bps
        return {"throttled": bool(throttled), "waste_fraction": float(waste)}
