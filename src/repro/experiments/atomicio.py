"""Crash-safe file primitives shared by the cache, the run journal and the farm.

Everything durable the harness writes (cache entries, journal files,
metrics snapshots) goes through :func:`atomic_write_bytes` /
:func:`atomic_write_text`: the payload lands in a uniquely named
temporary file in the *same directory* (same filesystem, so the final
``os.replace`` is atomic), is flushed and fsync'd, and only then renamed
over the destination.  A crash -- ``kill -9``, OOM, power loss -- at any
point leaves either the old file or the new file, never a truncated
hybrid, and never clobbers the destination with a partial write.

:func:`checksum_line` / :func:`parse_checksum_line` implement the
per-record CRC32 framing of the shard journal (see
:mod:`repro.experiments.resilience`), whose first line, like a farm
spool's ``MANIFEST``, is a :class:`RunHeader`.  :class:`ChecksummedStore`
is the one entry store behind the result cache and the farm's shard
store; :func:`quarantine_file` moves a rejected entry aside under a
unique name, preserving every bad copy for post-mortems.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, TypeVar, Union

PathLike = Union[str, "os.PathLike[str]"]

_T = TypeVar("_T")


def atomic_write_bytes(
    path: PathLike, data: bytes, *, fsync: bool = True
) -> Path:
    """Atomically replace ``path`` with ``data``; returns the final path.

    The temporary file name embeds the pid so concurrent writers (e.g.
    two sweep processes storing the same cache key) never stomp on each
    other's half-written temp file; last ``os.replace`` wins with a
    complete payload either way.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        # A failure between open and replace leaves the temp file; never
        # leave droppings behind to be mistaken for entries.
        if tmp.exists():
            tmp.unlink(missing_ok=True)
    return target


def atomic_write_text(
    path: PathLike, text: str, *, fsync: bool = True
) -> Path:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def quarantine_file(path: PathLike, quarantine_dir: PathLike) -> Optional[Path]:
    """Move a corrupt artifact into ``quarantine_dir`` under a unique name.

    The destination is ``<name>``, or ``<name>.1``, ``<name>.2``, ... if
    earlier quarantined copies already occupy the plain name -- so when
    an entry is recomputed and the replacement is *also* corrupt (a bad
    disk, a torn mount), every generation is preserved for post-mortem
    instead of each new copy clobbering the last.  Uses ``os.replace``
    within the same filesystem, so the move is atomic and the source
    vanishes in the same step.

    Returns:
        The destination path, or ``None`` if the source disappeared
        first (e.g. a concurrent process quarantined it already).
    """
    src = Path(path)
    qdir = Path(quarantine_dir)
    qdir.mkdir(parents=True, exist_ok=True)
    suffix = 0
    while True:
        dest = qdir / (src.name if suffix == 0 else f"{src.name}.{suffix}")
        if not dest.exists():
            try:
                os.replace(src, dest)
            except FileNotFoundError:
                return None
            return dest
        suffix += 1


def checksum_line(payload: str) -> str:
    """Frame one journal record: ``<crc32 hex8> <payload>\\n``.

    The CRC covers the payload bytes only; a torn tail (partial last
    line after a crash mid-append) fails :func:`parse_checksum_line`
    and is discarded on load instead of poisoning the resume.
    """
    data = payload.encode("utf-8")
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x} {payload}\n"


def parse_checksum_line(line: str) -> Optional[str]:
    """Recover the payload of one framed line, or ``None`` if corrupt.

    Accepts lines with or without the trailing newline.  Any framing
    violation -- missing separator, bad hex, CRC mismatch, truncation --
    returns ``None``; callers treat that record as never written.
    """
    line = line.rstrip("\n")
    if len(line) < 10 or line[8] != " ":
        return None
    crc_hex, payload = line[:8], line[9:]
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    return payload


class RunHeader(NamedTuple):
    """The first line of a run journal and of a farm spool's ``MANIFEST``.

    Names the computation a file belongs to (layout version, experiment,
    run content key); readers discard a file whose header differs from
    the one they expect.
    """

    format: int
    exp_id: str
    key: str

    def line(self) -> str:
        """The header as one CRC32-framed line of canonical JSON."""
        return checksum_line(
            json.dumps(self._asdict(), sort_keys=True, separators=(",", ":"))
        )

    @staticmethod
    def parse(line: str) -> Optional["RunHeader"]:
        """Inverse of :meth:`line`, or ``None`` if the line is corrupt."""
        payload = parse_checksum_line(line)
        if payload is None:
            return None
        try:
            data = json.loads(payload)
            return RunHeader(
                int(data["format"]), str(data["exp_id"]), str(data["key"])
            )
        except (ValueError, KeyError, TypeError):
            return None


def _json_checksum(payload: Any) -> str:
    """SHA-256 over the canonical JSON of an entry payload."""
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class ChecksummedStore:
    """A directory of ``<key>.json`` entries with verified reads.

    Each entry is an envelope ``{"checksum": ..., "payload": ...}``
    whose SHA-256 covers the canonical JSON of the payload; writes are
    atomic.  An entry that is unreadable, unparseable, mismatched or
    refused by the decoder is *rejected*: counted in :attr:`corrupt`,
    moved to ``.quarantine/`` under a unique name, and read as a miss --
    also when the move itself fails.

    Args:
        directory: Store root (created lazily on first write).
    """

    #: Subdirectory rejected entries are parked in (never read back).
    QUARANTINE_DIRNAME = ".quarantine"

    def __init__(self, directory: PathLike) -> None:
        self._dir = Path(directory)
        #: Entries this instance rejected.
        self.corrupt = 0

    @property
    def directory(self) -> Path:
        """The store root."""
        return self._dir

    @property
    def quarantine_dir(self) -> Path:
        """Where rejected entries are moved for post-mortem inspection."""
        return self._dir / self.QUARANTINE_DIRNAME

    def path(self, key: str) -> Path:
        """The entry file for ``key``."""
        return self._dir / f"{key}.json"

    def write(self, key: str, payload: Any) -> Path:
        """Atomically write ``payload`` (JSON-serialisable) under ``key``."""
        envelope = {"checksum": _json_checksum(payload), "payload": payload}
        return atomic_write_text(self.path(key), json.dumps(envelope, indent=2))

    def read(self, key: str, decode: Callable[[Any], _T]) -> Optional[_T]:
        """The verified, decoded entry for ``key``, or ``None``.

        ``decode`` rejects a payload by raising ``ValueError``,
        ``KeyError`` or ``TypeError``.
        """
        path = self.path(key)
        if not path.is_file():
            return None
        try:
            envelope = json.loads(path.read_text())
            payload = envelope["payload"]
            if _json_checksum(payload) != envelope["checksum"]:
                raise ValueError(f"{path.name}: checksum mismatch")
            return decode(payload)
        except (OSError, ValueError, KeyError, TypeError):
            self._reject(path)
            return None

    def _reject(self, path: Path) -> None:
        """Count a bad entry and move it aside (best effort)."""
        self.corrupt += 1
        try:
            quarantine_file(path, self.quarantine_dir)
        except OSError:
            pass  # rejected either way; the next read rejects it again

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        if not self._dir.is_dir():
            return 0
        return sum(1 for _ in self._dir.glob("*.json"))

    def quarantine_count(self) -> int:
        """Files parked in the quarantine directory (``<name>.N`` too)."""
        if not self.quarantine_dir.is_dir():
            return 0
        return sum(1 for _ in self.quarantine_dir.iterdir())
