"""Spool layout, shard descriptors, and the content-addressed store."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.experiments.atomicio import RunHeader, checksum_line, quarantine_file
from repro.experiments.resilience import (
    JOURNAL_FORMAT,
    ShardId,
    ShardJournal,
    ShardRecord,
)
from repro.farm.spool import ShardStore, Spool, shard_key
from repro.obs import MetricsSnapshot


@dataclass(frozen=True)
class _Task:
    label: str
    x: int
    run_lo: int
    run_hi: int


def _double(task):
    return [2.0 * task.x] * (task.run_hi - task.run_lo)


#: seed, n, threshold, label, x, lo, hi
_SHARD = ShardId(7, 16, 2, "a", 1, 0, 4)

_KEY = "k" * 64


def _entry(**kwargs):
    """A worker's record as the store holds it: costs (or an error)
    plus provenance."""
    kwargs.setdefault("worker", "w1")
    kwargs.setdefault("attempt", 0)
    if "costs" not in kwargs and "error_type" not in kwargs:
        kwargs["costs"] = [1.0, 2.0, 3.0]
    return ShardRecord(ShardId(7, 16, 2, "algo", 4, 0, 3), **kwargs)


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


class TestShardKey:
    def test_deterministic(self):
        assert shard_key("r", _SHARD) == shard_key("r", ShardId(*_SHARD))

    @pytest.mark.parametrize(
        "other",
        [
            ("r2", _SHARD),  # different run key
            ("r", _SHARD._replace(seed=8)),  # different engine seed
            ("r", _SHARD._replace(n=32)),  # different n
            ("r", _SHARD._replace(threshold=3)),  # different threshold
            ("r", _SHARD._replace(label="b")),  # different label
            ("r", _SHARD._replace(x=2)),  # different x
            ("r", _SHARD._replace(lo=1)),  # different lo
            ("r", _SHARD._replace(hi=5)),  # different hi
        ],
    )
    def test_distinct_per_coordinate(self, other):
        assert shard_key("r", _SHARD) != shard_key(*other)


class TestStoreEntry:
    """A store entry is a :class:`ShardRecord` payload with the worker's
    snapshot and provenance; a journal line is the same payload without
    them.  One codec and one validation serve both."""

    def test_payload_roundtrip(self):
        entry = _entry(snapshot=MetricsSnapshot(counters={"a": 1}))
        assert ShardRecord.from_payload(entry.to_payload()) == entry

    def test_error_entry_roundtrip(self):
        entry = _entry(error_type="ValueError", remote_traceback="boom")
        assert ShardRecord.from_payload(entry.to_payload()) == entry

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: _without(p, "seed"),  # missing identity field
            lambda p: {**p, "x": "not-an-int"},  # mistyped identity field
            lambda p: {**p, "costs": [1.0]},  # count/range mismatch
            lambda p: _without(p, "costs"),  # neither costs nor error
            lambda p: _without(p, "label"),
            lambda p: _without(p, "hi"),
            lambda p: {**p, "lo": None},
            lambda p: {**p, "costs": [1.0, "two", 3.0]},  # mistyped cost
            lambda p: {**p, "costs": 3.0},  # costs not a list
            lambda p: {**p, "quarantine": "sick"},  # two outcomes
            lambda p: {**p, "error_type": "ValueError"},  # two outcomes
            lambda p: {**p, "attempt": "first"},  # mistyped provenance
            lambda p: {**p, "snapshot": [1, 2]},  # mistyped snapshot
            lambda p: {**p, "snapshot": {"counters": [1]}},
            lambda p: list(p.items()),  # not an object
            lambda p: "costs",
        ],
    )
    def test_malformed_payload_rejected(self, tmp_path, mutate):
        payload = mutate(_entry().to_payload())
        with pytest.raises(ValueError):
            ShardRecord.from_payload(payload)
        # The store quarantines such an entry ...
        store = ShardStore(tmp_path / "store")
        store.write(_KEY, payload)
        assert store.load(_KEY) is None
        assert store.corrupt == 1
        # ... and a resumed journal drops such a line.
        path = tmp_path / "j"
        path.write_text(
            RunHeader(JOURNAL_FORMAT, "figX", _KEY).line()
            + checksum_line(json.dumps(payload))
        )
        journal = ShardJournal(
            path, exp_id="figX", key=_KEY, resume=True, fsync=False
        )
        assert (journal.dropped_records, journal.resumed_records) == (1, 0)
        assert journal.quarantined_records == 0


class TestShardStore:
    def test_store_load_roundtrip(self, tmp_path):
        store = ShardStore(tmp_path)
        entry = _entry()
        store.store(_KEY, entry)
        assert store.load(_KEY) == entry
        assert store.entry_count() == 1
        assert store.quarantine_count() == 0

    def test_missing_is_plain_miss(self, tmp_path):
        store = ShardStore(tmp_path)
        assert store.load("f" * 64) is None
        assert store.corrupt == 0

    def test_corrupt_entry_quarantined(self, tmp_path):
        store = ShardStore(tmp_path)
        path = store.store(_KEY, _entry())
        data = json.loads(path.read_text())
        data["payload"]["costs"] = [9.0, 9.0, 9.0]  # tamper, keep checksum
        path.write_text(json.dumps(data))
        assert store.load(_KEY) is None
        assert store.corrupt == 1
        assert not path.exists()
        assert store.quarantine_count() == 1

    def test_repeated_corruption_never_clobbers(self, tmp_path):
        """A recomputed replacement that is also corrupt quarantines
        again under a fresh name (the satellite-4 contract)."""
        store = ShardStore(tmp_path)
        for generation in range(3):
            path = store.store(_KEY, _entry())
            path.write_text("garbage generation %d" % generation)
            assert store.load(_KEY) is None
        assert store.corrupt == 3
        assert store.quarantine_count() == 3
        names = sorted(p.name for p in store.quarantine_dir.iterdir())
        assert names == [f"{_KEY}.json", f"{_KEY}.json.1", f"{_KEY}.json.2"]
        # Every generation's bytes survived for post-mortem.
        contents = {p.read_text() for p in store.quarantine_dir.iterdir()}
        assert contents == {
            "garbage generation 0",
            "garbage generation 1",
            "garbage generation 2",
        }

    def test_truncated_entry_quarantined(self, tmp_path):
        store = ShardStore(tmp_path)
        path = store.store(_KEY, _entry())
        path.write_text(path.read_text()[:20])
        assert store.load(_KEY) is None
        assert store.quarantine_count() == 1


class TestQuarantineFile:
    def test_unique_names(self, tmp_path):
        qdir = tmp_path / "q"
        dests = []
        for i in range(3):
            src = tmp_path / "bad.json"
            src.write_text(f"copy {i}")
            dests.append(quarantine_file(src, qdir))
            assert not src.exists()
        assert [d.name for d in dests] == [
            "bad.json", "bad.json.1", "bad.json.2",
        ]
        assert [d.read_text() for d in dests] == ["copy 0", "copy 1", "copy 2"]

    def test_missing_source_returns_none(self, tmp_path):
        assert quarantine_file(tmp_path / "gone", tmp_path / "q") is None


class TestSpool:
    def test_manifest_roundtrip(self, tmp_path):
        spool = Spool(tmp_path / "s")
        spool.write_manifest("figX", "k" * 64)
        assert spool.manifest_matches("figX", "k" * 64)
        assert not spool.manifest_matches("figY", "k" * 64)
        assert not spool.manifest_matches("figX", "j" * 64)

    def test_corrupt_manifest_never_matches(self, tmp_path):
        spool = Spool(tmp_path / "s")
        spool.write_manifest("figX", "k" * 64)
        spool.manifest_path.write_text(
            spool.manifest_path.read_text()[:-5]
        )
        assert not spool.manifest_matches("figX", "k" * 64)

    def test_missing_manifest_never_matches(self, tmp_path):
        assert not Spool(tmp_path / "s").manifest_matches("figX", "k" * 64)

    def test_shard_descriptor_roundtrip(self, tmp_path):
        spool = Spool(tmp_path / "s")
        spool.write_manifest("figX", "k" * 64)
        task = _Task("algo", 3, 0, 5)
        key = shard_key("k" * 64, _SHARD._replace(label=task.label, x=task.x, hi=5))
        spool.write_shard(key, _double, task)
        loaded = spool.read_shard(key)
        assert loaded is not None
        fn, loaded_task = loaded
        assert loaded_task == task
        assert fn(loaded_task) == [6.0] * 5

    def test_damaged_descriptor_returns_none(self, tmp_path):
        spool = Spool(tmp_path / "s")
        spool.write_manifest("figX", "k" * 64)
        key = shard_key("k" * 64, _SHARD._replace(hi=2))
        spool.write_shard(key, _double, _Task("a", 1, 0, 2))
        blob = spool.shard_path(key).read_bytes()
        spool.shard_path(key).write_bytes(blob[:-3])
        assert spool.read_shard(key) is None

    def test_missing_descriptor_returns_none(self, tmp_path):
        spool = Spool(tmp_path / "s")
        assert spool.read_shard("e" * 64) is None

    def test_discard_removes_tree(self, tmp_path):
        spool = Spool(tmp_path / "s")
        spool.write_manifest("figX", "k" * 64)
        spool.discard()
        assert not spool.root.exists()
        spool.discard()  # idempotent
