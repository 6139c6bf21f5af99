"""Content-addressed on-disk cache for experiment results.

Re-running ``fig01`` with the same configuration recomputes hundreds of
thousands of trials that are fully determined by ``(experiment, config,
seed, code)``.  The cache stores each finished
:class:`~repro.experiments.common.ExperimentResult` as JSON under
``results/cache/``, keyed by a SHA-256 over:

* the experiment id,
* the runner's keyword configuration (``runs``, ``seed``, ...), and
* a fingerprint of the package's source tree (every ``.py`` under
  ``src/repro``), so **any** code change invalidates every entry --
  coarse but sound, and invalidation needs no bookkeeping.

Backend-only knobs (``jobs``) are excluded from the key: parallel and
serial runs produce bit-identical results, so they share entries.

Integrity comes from :class:`repro.experiments.atomicio.ChecksummedStore`
(shared with the farm's shard store): every entry embeds a SHA-256
checksum over its result payload and is written atomically, and a
corrupt, truncated or checksum-mismatched file found at load time is
*quarantined* to ``<cache-dir>/.quarantine/`` and counted as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping, Optional, Tuple

from repro.experiments.atomicio import ChecksummedStore
from repro.experiments.common import ExperimentResult
from repro.experiments.serialization import (
    experiment_result_from_dict,
    experiment_result_to_dict,
)
from repro.obs import get_registry

#: Import-time instruments (inert until metrics are enabled).
_OBS = get_registry()
_C_HITS = _OBS.counter("cache.hits")
_C_MISSES = _OBS.counter("cache.misses")
_C_STORES = _OBS.counter("cache.stores")
_C_QUARANTINED = _OBS.counter("resilience.cache_quarantined")

#: Default cache directory, relative to the repository root (the cwd the
#: CLI is normally invoked from).
DEFAULT_CACHE_DIR = Path("results") / "cache"

#: Configuration keys that select the execution backend rather than the
#: computation; they never affect results and are excluded from keys.
#: ``backend``/``spool_dir`` cover the farm: a ``--backend farm`` run is
#: byte-identical to a local one, so they share cache entries (and the
#: farm's shard keys, derived from this key, stay comparable too).
_BACKEND_KEYS = frozenset({"jobs", "cache", "backend", "spool_dir"})

_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the package's source tree (cached per process).

    Hashes the relative path and contents of every ``*.py`` under the
    installed ``repro`` package, in sorted order, so any source edit --
    including to modules an experiment does not import directly --
    changes the fingerprint.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def cache_key(exp_id: str, params: Mapping[str, Any]) -> str:
    """Content hash identifying one experiment computation.

    Args:
        exp_id: Experiment id, e.g. ``"fig01"``.
        params: The runner's keyword configuration.  Backend-only keys
            (``jobs``) are dropped; the rest must be JSON-serialisable.

    Returns:
        A hex digest; equal keys guarantee bit-identical results.
    """
    payload = {
        "exp_id": exp_id,
        "params": {
            k: params[k] for k in sorted(params) if k not in _BACKEND_KEYS
        },
        "code": code_fingerprint(),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


class ResultCache(ChecksummedStore):
    """A :class:`ChecksummedStore` of :class:`ExperimentResult` entries.

    Args:
        directory: Cache root (created lazily on first store).

    Example:
        >>> cache = ResultCache("/tmp/doctest-cache")
        >>> cache.load("fig01", {"runs": 2}) is None
        True
    """

    def __init__(self, directory: os.PathLike | str = DEFAULT_CACHE_DIR) -> None:
        super().__init__(directory)
        self.hits = 0
        self.misses = 0

    def _reject(self, path: Path) -> None:
        super()._reject(path)
        _C_QUARANTINED.inc()

    def load(
        self, exp_id: str, params: Mapping[str, Any]
    ) -> Optional[ExperimentResult]:
        """Return the cached result for this computation, or ``None``.

        A missing entry is a plain miss.  An entry that is unreadable,
        unparseable, truncated, or whose embedded checksum does not
        match its result payload is quarantined to
        ``<cache-dir>/.quarantine/`` and counted as a miss -- it is
        never returned and never consulted again.
        """
        result = self.read(
            cache_key(exp_id, params), experiment_result_from_dict
        )
        if result is None:
            self.misses += 1
            _C_MISSES.inc()
        else:
            self.hits += 1
            _C_HITS.inc()
        return result

    def store(
        self, exp_id: str, params: Mapping[str, Any], result: ExperimentResult
    ) -> Path:
        """Atomically write ``result`` under its content key; returns
        the file path."""
        path = self.write(
            cache_key(exp_id, params), experiment_result_to_dict(result)
        )
        _C_STORES.inc()
        return path

    def clear(self) -> int:
        """Delete all entries; returns how many were removed."""
        removed = 0
        if self._dir.is_dir():
            for path in sorted(self._dir.glob("*.json")):
                path.unlink()
                removed += 1
        return removed

    def stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` observed by this instance."""
        return self.hits, self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
