"""On-disk content-addressed result store.

Blobs live under ``<root>/v<version>/<hh>/<hash>.json`` where ``hash``
is the spec's SHA-256 content hash, ``hh`` its first two hex digits
(directory sharding) and ``version`` the package version — bumping
``repro.__version__`` therefore invalidates every prior entry without
touching them on disk.  Writes are atomic (temp file + ``os.replace``)
so a killed run never leaves a half-written blob.

Every blob carries a ``payload_sha256`` over the canonical result JSON
and is verified on read: a blob that fails to decode, whose digest
mismatches, or whose result no longer parses is *moved* to
``<root>/quarantine/v<version>/`` (never re-parsed on the next lookup,
never silently deleted — the evidence survives for ``repro doctor``)
and the lookup reads as a miss, so the result is recomputed.
:meth:`ResultCache.fsck` walks the whole store offline.

The default root is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro import __version__
from repro.runtime.spec import RunResult, RunSpec

#: Environment override for the cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def payload_sha256(result_json: dict) -> str:
    """Digest of a result's canonical JSON — the blob integrity seal."""
    data = json.dumps(result_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of the store returned by :meth:`ResultCache.info`."""

    root: str
    version: str
    entries: int
    total_bytes: int
    other_versions: tuple[str, ...]
    quarantined: int = 0


@dataclass
class FsckReport:
    """Outcome of :meth:`ResultCache.fsck` (``repro doctor``)."""

    checked: int = 0
    ok: int = 0
    quarantined: list[str] = field(default_factory=list)
    orphan_tmp_removed: int = 0

    @property
    def healthy(self) -> bool:
        return not self.quarantined

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "ok": self.ok,
            "quarantined": list(self.quarantined),
            "orphan_tmp_removed": self.orphan_tmp_removed,
            "healthy": self.healthy,
        }


class ResultCache:
    """Content-addressed :class:`RunResult` store keyed by spec hash."""

    def __init__(self, root: str | os.PathLike | None = None, *,
                 version: str | None = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self.version = version or __version__
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        #: Optional ``hook(path)`` called after every blob write — the
        #: fault-injection seam (:meth:`FaultInjector.on_cache_put`).
        self.put_hook = None

    # -- paths --------------------------------------------------------

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{self.version}"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine" / f"v{self.version}"

    def path_for(self, spec_hash: str) -> Path:
        return self.version_dir / spec_hash[:2] / f"{spec_hash}.json"

    # -- integrity ----------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt blob out of the lookup path, keeping the bytes."""
        dest = self.quarantine_dir / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            # Cross-device or permission trouble: deleting still stops
            # the corrupt blob being re-parsed on every lookup.
            path.unlink(missing_ok=True)
        self.quarantined += 1

    def _load_verified(self, path: Path, expected_hash: str | None) -> RunResult | None:
        """Parse + integrity-check one blob; quarantines on corruption."""
        try:
            with open(path, encoding="utf-8") as handle:
                blob = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):  # undecodable: never re-parse it
            self._quarantine(path)
            return None
        if blob.get("cache_version") != self.version:
            self._quarantine(path)
            return None
        if expected_hash is not None and blob.get("spec_hash") != expected_hash:
            self._quarantine(path)
            return None
        result_json = blob.get("result")
        seal = blob.get("payload_sha256")
        if (
            not isinstance(result_json, dict)
            or seal != payload_sha256(result_json)
        ):
            self._quarantine(path)
            return None
        try:
            return RunResult.from_json(result_json)
        except (KeyError, TypeError, AttributeError, ValueError):
            self._quarantine(path)
            return None

    # -- operations ---------------------------------------------------

    def get(self, spec: RunSpec) -> RunResult | None:
        """Stored result for ``spec``, or ``None`` on miss.

        Corrupt blobs (bad JSON, digest mismatch, unparseable result)
        are quarantined and read as misses, so the caller recomputes.
        """
        result = self._load_verified(
            self.path_for(spec.content_hash), spec.content_hash
        )
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: RunSpec, result: RunResult) -> Path:
        """Atomically persist ``result`` (sealed) under the spec's hash."""
        path = self.path_for(spec.content_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        result_json = result.to_json()
        blob = {
            "cache_version": self.version,
            "spec_hash": spec.content_hash,
            "spec": spec.to_json(),
            "result": result_json,
            "payload_sha256": payload_sha256(result_json),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(blob, handle, sort_keys=True)
        os.replace(tmp, path)
        self.writes += 1
        if self.put_hook is not None:
            self.put_hook(path)
        return path

    def fsck(self) -> FsckReport:
        """Verify every blob of this version; quarantine the corrupt.

        Also sweeps orphaned ``*.tmp.*`` files left by killed writers.
        Backing store for ``repro doctor``.
        """
        report = FsckReport()
        for blob in self._blobs():
            report.checked += 1
            expected = blob.stem if len(blob.stem) == 64 else None
            if self._load_verified(blob, expected) is not None:
                report.ok += 1
            elif not blob.exists():  # moved (or deleted) by _quarantine
                report.quarantined.append(blob.name)
        if self.version_dir.is_dir():
            for orphan in self.version_dir.glob("*/*.tmp.*"):
                orphan.unlink(missing_ok=True)
                report.orphan_tmp_removed += 1
        return report

    def _blobs(self) -> list[Path]:
        if not self.version_dir.is_dir():
            return []
        return sorted(self.version_dir.glob("*/*.json"))

    def info(self) -> CacheInfo:
        """Entry count and size for this version; names of the others."""
        blobs = self._blobs()
        others = tuple(
            sorted(
                entry.name
                for entry in self.root.iterdir()
                if entry.is_dir()
                and entry.name.startswith("v")
                and entry.name != f"v{self.version}"
            )
        ) if self.root.is_dir() else ()
        quarantined = (
            len(list(self.quarantine_dir.glob("*.json")))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return CacheInfo(
            root=str(self.root),
            version=self.version,
            entries=len(blobs),
            total_bytes=sum(blob.stat().st_size for blob in blobs),
            other_versions=others,
            quarantined=quarantined,
        )

    def clear(self, *, all_versions: bool = False) -> int:
        """Delete stored blobs; returns how many were removed.

        Only ``v*`` version directories are touched — the cache root
        may be a shared directory (``--cache-dir ~/.cache``), so
        anything that does not look like one of our version stores is
        left alone.
        """
        removed = 0
        if all_versions:
            roots = (
                [
                    entry
                    for entry in self.root.iterdir()
                    if entry.is_dir() and entry.name.startswith("v")
                ]
                if self.root.is_dir()
                else []
            )
        else:
            roots = [self.version_dir]
        for version_root in roots:
            for blob in version_root.glob("*/*.json"):
                blob.unlink(missing_ok=True)
                removed += 1
            # Sweep orphaned temp files from killed runs so the shard
            # directories actually empty out.
            for orphan in version_root.glob("*/*.tmp.*"):
                orphan.unlink(missing_ok=True)
            for shard in version_root.glob("*"):
                if shard.is_dir():
                    try:
                        shard.rmdir()
                    except OSError:
                        pass
            try:
                version_root.rmdir()
            except OSError:
                pass
        return removed
