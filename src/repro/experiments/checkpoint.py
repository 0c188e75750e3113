"""Crash-safe campaign checkpoints: the journal that makes resume work.

The content-addressed :class:`~repro.experiments.cache.ResultCache`
already makes *successful* cells recoverable — their artifacts survive a
kill and re-read as cache hits.  What a killed campaign loses without a
journal is everything the cache deliberately does not store: which cells
were quarantined (errors are never cached, so a resume would re-execute
known-bad cells), and which cells were in flight when the run died.

A :class:`CampaignCheckpoint` is an append-only JSONL journal, keyed by
the sha256 fingerprint of the spec's canonical encoding so a journal can
only ever resume the campaign that wrote it.  The first line is a header
(version, fingerprint, the spec itself); every subsequent line is one
event — ``{"f": [...]}`` when dispatch grows the in-flight frontier,
``{"s": {...}}`` when a cell settles.  Settling a cell therefore costs
one line of O(1) append I/O, not a rewrite of the whole journal, so
checkpointing stays cheap on multi-thousand-cell grids.  :meth:`flush`
compacts the event log into a fresh snapshot atomically (temp file +
rename); the Runner calls it when draining on SIGINT/SIGTERM.  A torn
trailing line from a mid-append kill is simply ignored on load —
everything before it already parsed.

On resume, quarantined cells are restored verbatim — same error string,
same wall — so an interrupted-then-resumed campaign reports exactly what
an uninterrupted one would, while completed cells come back through the
cache and only genuinely unfinished cells execute.

The file is deleted when a campaign settles every cell; a checkpoint on
disk therefore always means "this spec has unfinished work".
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections.abc import Iterable
from pathlib import Path
from typing import IO

from .cache import canonical_json
from .spec import ExperimentSpec

__all__ = ["spec_fingerprint", "SettledEntry", "CampaignCheckpoint"]

#: bump when the journal layout changes incompatibly (2: JSONL events)
_CHECKPOINT_VERSION = 2

#: subdirectory of a cache root where the CLI keeps campaign journals
CHECKPOINT_SUBDIR = ".checkpoints"


def spec_fingerprint(
    spec: ExperimentSpec, inputs: dict[str, str] | None = None
) -> str:
    """Stable identity of a spec: sha256 of its canonical JSON encoding.

    ``inputs`` are the upstream artifact-set digests a pipeline stage
    runs against (dependency name -> digest); they participate in the
    fingerprint so the same stage spec consuming *different* upstream
    data gets its own checkpoint journal and provenance identity.  A
    flat spec (``inputs=None``) fingerprints exactly as it always has.
    """
    ident: dict = spec.to_dict()
    if inputs:
        ident = {"inputs": dict(inputs), "spec": spec.to_dict()}
    return hashlib.sha256(
        canonical_json(ident).encode("utf-8")
    ).hexdigest()


@dataclasses.dataclass(frozen=True)
class SettledEntry:
    """One settled cell as recorded in the journal."""

    index: int
    #: the cell's cache key (None when the run had no cache)
    key: str | None
    #: quarantine reason, or None for a successful cell
    error: str | None
    wall_s: float


class CampaignCheckpoint:
    """Append-only on-disk journal of one campaign's progress."""

    def __init__(
        self,
        path: str | os.PathLike,
        spec: ExperimentSpec,
        fingerprint: str | None = None,
    ) -> None:
        self.path = Path(path)
        self.spec = spec
        #: identity of the campaign this journal may resume; a pipeline
        #: stage passes its inputs-aware fingerprint explicitly
        self.fingerprint = fingerprint or spec_fingerprint(spec)
        self.settled: dict[int, SettledEntry] = {}
        self.frontier: tuple[int, ...] = ()
        #: persistent append handle (lazily opened)
        self._fh: IO[str] | None = None
        #: True once the on-disk file is known to be *this* spec's journal
        self._synced = False

    @classmethod
    def for_spec(
        cls,
        directory: str | os.PathLike,
        spec: ExperimentSpec,
        inputs: dict[str, str] | None = None,
    ) -> "CampaignCheckpoint":
        """The journal for ``spec`` under ``directory``.

        One file per campaign identity: a flat spec keeps its historical
        fingerprint, while a pipeline stage's journal is additionally
        keyed by the upstream digests it consumes, so resuming a stage
        whose upstream changed starts fresh instead of replaying a
        journal written against different inputs.
        """
        fp = spec_fingerprint(spec, inputs=inputs)
        return cls(Path(directory) / f"{fp}.ckpt.jsonl", spec, fingerprint=fp)

    # -- persistence -------------------------------------------------------

    def load(self) -> bool:
        """Restore journal state from disk.

        Returns True when a valid journal for *this* spec was restored;
        a missing, corrupt, wrong-version, or wrong-spec file leaves the
        checkpoint empty and returns False (it will be overwritten on
        the next event).  A corrupt line stops the replay there — a torn
        trailing append loses only that one event.
        """
        self._close()
        self._synced = False
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return False
        if not lines:
            return False
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            return False
        if (
            not isinstance(header, dict)
            or header.get("v") != _CHECKPOINT_VERSION
            or header.get("spec_fingerprint") != self.fingerprint
        ):
            return False
        settled: dict[int, SettledEntry] = {}
        frontier: tuple[int, ...] = ()
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                event = json.loads(line)
                if "f" in event:
                    frontier = tuple(int(i) for i in event["f"])
                elif "s" in event:
                    e = event["s"]
                    entry = SettledEntry(
                        index=int(e["index"]),
                        key=e.get("key"),
                        error=e.get("error"),
                        wall_s=float(e.get("wall_s", 0.0)),
                    )
                    settled[entry.index] = entry
                    frontier = tuple(i for i in frontier if i != entry.index)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                break
        self.settled = settled
        self.frontier = frontier
        self._synced = True
        return True

    def flush(self) -> None:
        """Compact the journal into a fresh snapshot, atomically.

        Rewrites the file as header + current frontier + one settle
        event per cell via temp file + rename.  The Runner calls this
        when draining on a signal; routine settles go through the O(1)
        append path instead.
        """
        self._close()
        lines = [
            json.dumps(
                {
                    "v": _CHECKPOINT_VERSION,
                    "spec_fingerprint": self.fingerprint,
                    "spec": self.spec.to_dict(),
                    "n_cells": self.spec.n_cells,
                },
                allow_nan=False,
            )
        ]
        if self.frontier:
            lines.append(json.dumps({"f": list(self.frontier)}))
        for i in sorted(self.settled):
            lines.append(
                json.dumps(
                    {"s": dataclasses.asdict(self.settled[i])}, allow_nan=False
                )
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.parent / f"{self.path.name}.{os.getpid()}.tmp"
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(tmp, self.path)
        self._synced = True

    def _append(self, event: dict) -> None:
        """O(1) durable append of one event line."""
        if not self._synced:
            # first touch (or a foreign/corrupt file on disk): write a
            # full snapshot — it already embodies this event's state
            self.flush()
            return
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(event, allow_nan=False) + "\n")
        self._fh.flush()

    def _close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - close of a dead handle
                pass
            self._fh = None

    # -- journal events ----------------------------------------------------

    def begin_batch(self, indices: Iterable[int]) -> None:
        """Record the in-flight frontier before dispatching into it."""
        self.frontier = tuple(int(i) for i in indices)
        self._append({"f": list(self.frontier)})

    def record(
        self, index: int, key: str | None, error: str | None, wall_s: float
    ) -> None:
        """Journal one settled cell (single-line append)."""
        entry = SettledEntry(
            index=int(index), key=key, error=error, wall_s=float(wall_s)
        )
        self.settled[entry.index] = entry
        self.frontier = tuple(i for i in self.frontier if i != entry.index)
        self._append({"s": dataclasses.asdict(entry)})

    def complete(self) -> None:
        """The campaign settled every cell: remove the journal."""
        self._close()
        self._synced = False
        try:
            self.path.unlink()
        except OSError:
            pass
