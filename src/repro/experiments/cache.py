"""Content-addressed on-disk cache for campaign cell results.

A cell's identity is *what would be computed*: the scenario name, the
fully merged parameter dict, and the seed.  :func:`cell_key` hashes the
canonical JSON encoding of that triple (sorted keys, no whitespace), so
the key is stable across processes and insertion orders — re-running a
sweep recomputes only cells whose inputs actually changed, and growing
an axis leaves the old cells' artifacts valid.

Canonical JSON is strict RFC 8259: non-finite floats (``nan``,
``inf``) are rejected with a clear error rather than emitted as the
Python-only ``NaN``/``Infinity`` literals — two NaN-bearing param dicts
would otherwise hash to *different* keys while meaning the same thing,
and the artifact would be unreadable to any non-Python consumer.

Artifacts are JSON files under ``<root>/<key[:2]>/<key>.json`` (two-level
fan-out keeps directories small on big grids), written atomically via a
temp file + rename so a killed run never leaves a truncated artifact
that would poison later reads.  Corrupt or unreadable artifacts are
treated as misses, never as errors.  A run killed *between* the temp
write and the rename leaves an orphaned ``<key>.<pid>.tmp`` file; those
are invisible to :meth:`ResultCache.__len__`/:meth:`ResultCache.get`
and are reaped by :meth:`ResultCache.prune_tmp` (surfaced as
``repro-gridftp cache prune-tmp``).

Results that carry non-finite floats (a chaos report's ``inf`` wall)
pass through the artifact codec defined here, :func:`encode_nonfinite`
/ :func:`decode_nonfinite`, beside the cache version whose format it
writes: the ``managed_service``, ``sched_compare`` and
``sched_cost_curve`` cells encode with it and the ``pareto_front``
reader (:func:`~repro.experiments.registry.pareto_front_points`)
decodes with it, and none of them imports the simulator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import time
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any

__all__ = [
    "canonical_json",
    "cell_key",
    "encode_nonfinite",
    "decode_nonfinite",
    "CacheStats",
    "VerifyReport",
    "ResultCache",
]

#: bump when the artifact payload layout changes incompatibly
#: (2: non-finite floats are tagged ``{"__nonfinite__": ...}`` wrappers,
#: not bare ``"NaN"``/``"Infinity"`` strings)
_CACHE_VERSION = 2

#: wrapper key for floats RFC 8259 cannot carry; the artifact cache
#: rejects raw NaN/Infinity, and chaos reports legitimately contain
#: ``math.inf`` (a job that never completed has an infinite wall).
#: A tagged one-key object — not a bare string like ``"NaN"`` — so a
#: field that *legitimately* holds such a string survives the round
#: trip unchanged.
_NONFINITE_KEY = "__nonfinite__"
_NONFINITE_SENTINELS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}

#: two-level shard directories are two lowercase hex chars
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")
#: artifact stems are full sha256 hex digests
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


def encode_nonfinite(obj: Any) -> Any:
    """Recursively wrap non-finite floats as ``{"__nonfinite__": tag}``.

    Keeps campaign results strict-JSON-cacheable while staying lossless
    for every other value — including strings such as ``"NaN"`` —
    :func:`decode_nonfinite` restores the exact float values.  Raises
    ``ValueError`` if the input already uses the reserved wrapper key
    (no real report does; the keys come from dataclass field names).
    """
    if isinstance(obj, float):
        if math.isnan(obj):
            return {_NONFINITE_KEY: "nan"}
        if math.isinf(obj):
            return {_NONFINITE_KEY: "inf" if obj > 0 else "-inf"}
        return obj
    if isinstance(obj, dict):
        if _NONFINITE_KEY in obj:
            raise ValueError(
                f"cannot encode a mapping that already uses the reserved "
                f"{_NONFINITE_KEY!r} key"
            )
        return {k: encode_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(encode_nonfinite(v) for v in obj)
    if isinstance(obj, list):
        return [encode_nonfinite(v) for v in obj]
    return obj


def decode_nonfinite(obj: Any) -> Any:
    """Inverse of :func:`encode_nonfinite`."""
    if isinstance(obj, dict):
        tag = obj.get(_NONFINITE_KEY)
        if set(obj) == {_NONFINITE_KEY} and isinstance(tag, str):
            if tag in _NONFINITE_SENTINELS:
                return _NONFINITE_SENTINELS[tag]
        return {k: decode_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(decode_nonfinite(v) for v in obj)
    if isinstance(obj, list):
        return [decode_nonfinite(v) for v in obj]
    return obj


def canonical_json(obj: Any) -> str:
    """Deterministic strict JSON: sorted keys, minimal separators.

    Raises ``ValueError`` on non-finite floats — ``NaN``/``Infinity``
    are not JSON (RFC 8259) and would make equal-meaning inputs hash
    unequal.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def cell_key(
    scenario: str,
    params: dict[str, Any],
    seed: int,
    inputs: dict[str, str] | None = None,
) -> str:
    """The content address of one cell's computation.

    ``inputs`` names the upstream artifact-set digests an analysis cell
    was computed against (dependency name -> digest).  It participates
    in the key, so changing *anything* upstream — an axis value, a
    seed, a param — re-keys every downstream cell; a plain (non-
    analysis) cell omits it and its key is byte-identical to what this
    function produced before pipelines existed.
    """
    ident = {
        "v": _CACHE_VERSION,
        "scenario": scenario,
        "params": params,
        "seed": int(seed),
    }
    if inputs:
        ident["inputs"] = dict(inputs)
    try:
        encoded = canonical_json(ident)
    except ValueError as exc:
        raise ValueError(
            f"cell identity for scenario {scenario!r} contains non-finite "
            f"floats (nan/inf), which cannot be content-addressed: {exc}. "
            "Replace them with finite sentinels or None in the spec."
        ) from None
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Shape of a cache directory, as reported by ``cache stats``."""

    n_artifacts: int
    total_bytes: int
    #: scenario name -> artifact count ("?" for unreadable artifacts)
    by_scenario: dict[str, int]
    n_tmp: int
    tmp_bytes: int
    #: seconds since the oldest/newest artifact mtime (None when empty)
    oldest_age_s: float | None
    newest_age_s: float | None


@dataclasses.dataclass(frozen=True)
class VerifyReport:
    """Outcome of re-hashing every artifact against its filename key."""

    n_ok: int
    #: unparseable / wrong payload shape / non-finite floats
    corrupt: tuple[Path, ...]
    #: parseable but sha256(identity) != filename stem
    mismatched: tuple[Path, ...]

    @property
    def bad(self) -> tuple[Path, ...]:
        return self.corrupt + self.mismatched

    @property
    def ok(self) -> bool:
        return not self.bad


def _require_age(older_than_s: float) -> None:
    """Refuse an age that is not finite and >= 0: a NaN or negative one
    selects every file, in-flight temp files included."""
    if not 0 <= older_than_s < math.inf:
        raise ValueError(
            f"older_than_s must be a finite age >= 0 s, got {older_than_s!r}"
        )


class ResultCache:
    """Filesystem-backed cell-result store keyed by :func:`cell_key`."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("v") != _CACHE_VERSION:
            return None
        return payload

    def put(
        self,
        key: str,
        scenario: str,
        params: dict[str, Any],
        seed: int,
        result: Any,
        wall_s: float,
        inputs: dict[str, str] | None = None,
        provenance: dict[str, Any] | None = None,
    ) -> None:
        """Persist one computed cell atomically.

        ``inputs`` are the upstream digests that participated in the
        cell's key (analysis cells; see :func:`cell_key`) — stored so
        :meth:`verify` can re-derive the key.  ``provenance`` is the
        producing spec's header (fingerprint, name, cell index/coords);
        it does not affect the key, only how the artifact can be
        located and attributed by cross-spec readers.

        Raises ``ValueError`` if the result contains non-finite floats —
        the artifact must stay valid RFC 8259 JSON (the Runner treats
        that as "uncacheable", not as a cell failure).
        """
        payload = {
            "v": _CACHE_VERSION,
            "scenario": scenario,
            "params": params,
            "seed": int(seed),
            "result": result,
            "wall_s": wall_s,
        }
        if inputs:
            payload["inputs"] = dict(inputs)
        if provenance:
            payload["provenance"] = dict(provenance)
        try:
            encoded = json.dumps(payload, allow_nan=False)
        except ValueError as exc:
            raise ValueError(
                f"result for scenario {scenario!r} (key {key[:12]}...) "
                f"contains non-finite floats and cannot be stored as "
                f"strict JSON: {exc}"
            ) from None
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # tmp name keeps the key visible and never ends in .json, so an
        # orphan is (a) attributable and (b) invisible to readers
        tmp = path.parent / f"{key}.{os.getpid()}.tmp"
        tmp.write_text(encoded, encoding="utf-8")
        os.replace(tmp, path)

    def open_artifact(self, key: str):
        """The stored cell as a typed :class:`~.artifacts.Artifact`.

        Returns ``None`` on miss/corruption, like :meth:`get`.
        Artifacts written before provenance headers existed open with
        ``spec_fingerprint``/``spec_name``/``index`` as ``None``.
        """
        from .artifacts import Artifact  # local: avoids an import cycle

        payload = self.get(key)
        if payload is None:
            return None
        prov = payload.get("provenance") or {}
        try:
            return Artifact(
                scenario=payload["scenario"],
                params=payload["params"],
                seed=payload["seed"],
                key=key,
                result=payload["result"],
                wall_s=float(payload["wall_s"]),
                cache_version=payload["v"],
                spec_fingerprint=prov.get("spec_fingerprint"),
                spec_name=prov.get("spec_name"),
                index=prov.get("index"),
                coords=prov.get("coords") or {},
                inputs=payload.get("inputs"),
                cached=True,
            )
        except (KeyError, TypeError, ValueError):  # wrong payload shape
            return None

    # -- enumeration -------------------------------------------------------

    def iter_artifacts(self) -> Iterator[Path]:
        """Every committed artifact, sorted; tmp/foreign files excluded."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or not _SHARD_RE.match(shard.name):
                continue
            for path in sorted(shard.glob("*.json")):
                if _KEY_RE.match(path.stem):
                    yield path

    def tmp_files(self) -> list[Path]:
        """Orphaned in-flight temp files (current and legacy naming)."""
        if not self.root.is_dir():
            return []
        out: set[Path] = set()
        for shard in self.root.iterdir():
            if not shard.is_dir() or not _SHARD_RE.match(shard.name):
                continue
            out.update(shard.glob("*.tmp"))
            out.update(shard.glob("*.tmp.*"))  # pre-maintenance naming
        return sorted(out)

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_artifacts())

    # -- maintenance -------------------------------------------------------

    def stats(self, now: float | None = None) -> CacheStats:
        """Counts, bytes, per-scenario breakdown, and orphan census."""
        now = time.time() if now is None else now
        n = 0
        total = 0
        by_scenario: dict[str, int] = {}
        oldest: float | None = None
        newest: float | None = None
        for path in self.iter_artifacts():
            try:
                st = path.stat()
            except OSError:
                continue
            n += 1
            total += st.st_size
            age = now - st.st_mtime
            oldest = age if oldest is None else max(oldest, age)
            newest = age if newest is None else min(newest, age)
            scenario = "?"
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                scenario = str(payload.get("scenario", "?"))
            except (OSError, json.JSONDecodeError, AttributeError):
                pass
            by_scenario[scenario] = by_scenario.get(scenario, 0) + 1
        tmp = self.tmp_files()
        tmp_bytes = 0
        for path in tmp:
            try:
                tmp_bytes += path.stat().st_size
            except OSError:
                pass
        return CacheStats(
            n_artifacts=n,
            total_bytes=total,
            by_scenario=by_scenario,
            n_tmp=len(tmp),
            tmp_bytes=tmp_bytes,
            oldest_age_s=oldest,
            newest_age_s=newest,
        )

    def verify(self, delete: bool = False) -> VerifyReport:
        """Re-hash every artifact against its filename key.

        An artifact is *corrupt* when it fails to parse, has the wrong
        payload shape/version, or contains non-finite floats (which can
        never re-hash); *mismatched* when it parses cleanly but its
        recomputed :func:`cell_key` differs from the filename — a
        renamed, truncated-then-padded, or tampered file.  ``delete``
        removes everything bad.
        """
        n_ok = 0
        corrupt: list[Path] = []
        mismatched: list[Path] = []
        for path in self.iter_artifacts():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                corrupt.append(path)
                continue
            if (
                not isinstance(payload, dict)
                or payload.get("v") != _CACHE_VERSION
                or "scenario" not in payload
                or "params" not in payload
                or "seed" not in payload
            ):
                corrupt.append(path)
                continue
            try:
                recomputed = cell_key(
                    payload["scenario"],
                    payload["params"],
                    payload["seed"],
                    inputs=payload.get("inputs"),
                )
            except (ValueError, TypeError):
                corrupt.append(path)
                continue
            if recomputed != path.stem:
                mismatched.append(path)
            else:
                n_ok += 1
        if delete:
            for path in corrupt + mismatched:
                self._remove(path)
        return VerifyReport(
            n_ok=n_ok, corrupt=tuple(corrupt), mismatched=tuple(mismatched)
        )

    def gc(
        self,
        older_than_s: float | None = None,
        keys: Iterable[str] | None = None,
        now: float | None = None,
    ) -> list[Path]:
        """Remove artifacts matching *all* given filters; returns removals.

        ``older_than_s`` drops artifacts whose mtime age exceeds it;
        ``keys`` restricts removal to those cell keys (e.g. one spec's
        cells).  At least one filter is required — an unfiltered gc
        would silently wipe the store.
        """
        if older_than_s is None and keys is None:
            raise ValueError(
                "gc needs a filter: older_than_s and/or keys "
                "(refusing to wipe the whole cache)"
            )
        if older_than_s is not None:
            _require_age(older_than_s)
        now = time.time() if now is None else now
        keyset = None if keys is None else set(keys)
        removed: list[Path] = []
        for path in list(self.iter_artifacts()):
            if keyset is not None and path.stem not in keyset:
                continue
            if older_than_s is not None:
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue
                if age < older_than_s:
                    continue
            self._remove(path)
            removed.append(path)
        return removed

    def prune_tmp(self, older_than_s: float = 0.0, now: float | None = None) -> list[Path]:
        """Remove orphaned temp files older than ``older_than_s`` seconds."""
        _require_age(older_than_s)
        now = time.time() if now is None else now
        removed: list[Path] = []
        for path in self.tmp_files():
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age < older_than_s:
                continue
            self._remove(path)
            removed.append(path)
        return removed

    def _remove(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            return
        try:  # drop the shard dir once it empties out
            path.parent.rmdir()
        except OSError:
            pass
