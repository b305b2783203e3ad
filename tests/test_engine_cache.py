"""Sharded result-cache tests: atomicity, quarantine, concurrency."""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.core.results import ScanRecord, TrojanDecision
from repro.engine.cache import (
    CACHE_SCHEMA_VERSION,
    CacheLockTimeout,
    ScanCache,
)
from repro.engine.scan import hash_source


def _record(name: str, label: int = 0) -> ScanRecord:
    """A minimal successful record keyed by its name's content hash."""
    p_infected = 0.9 if label else 0.1
    return ScanRecord(
        name=name,
        sha256=hash_source(name),
        decision=TrojanDecision(
            name=name,
            predicted_label=label,
            probability_infected=p_infected,
            p_value_trojan_free=1.0 - p_infected,
            p_value_trojan_infected=p_infected,
            region_labels=(label,),
            credibility=0.9,
            confidence=0.95,
        ),
    )


class TestShardedStore:
    def test_put_flush_reload_round_trip(self, tmp_path):
        cache = ScanCache(tmp_path, "fp-rt")
        records = [_record(f"design_{i}") for i in range(20)]
        cache.put_many(records)
        assert cache.flush() == cache.namespace_dir
        fresh = ScanCache(tmp_path, "fp-rt")
        assert len(fresh) == 20
        for record in records:
            hit = fresh.get(record.sha256)
            assert hit is not None and hit.cached
            assert hit.decision.p_value_trojan_infected == record.decision.p_value_trojan_infected

    def test_records_sharded_by_hash_prefix(self, tmp_path):
        cache = ScanCache(tmp_path, "fp-shard")
        cache.put_many(_record(f"d{i}") for i in range(40))
        cache.flush()
        shard_files = sorted((cache.namespace_dir / "shards").glob("*.json"))
        assert len(shard_files) > 1  # hash prefixes spread across files
        for path in shard_files:
            data = json.loads(path.read_text())
            assert data["schema_version"] == CACHE_SCHEMA_VERSION
            assert data["fingerprint"] == "fp-shard"
            for sha in data["records"]:
                assert sha.startswith(path.stem)

    def test_flush_leaves_no_temp_files(self, tmp_path):
        cache = ScanCache(tmp_path, "fp-tmp")
        cache.put(_record("a"))
        cache.flush()
        leftovers = [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_flush_without_changes_is_noop(self, tmp_path):
        cache = ScanCache(tmp_path, "fp-noop")
        assert cache.flush() is None
        cache.put(_record("a"))
        cache.flush()
        assert cache.flush() is None

    def test_clear_removes_shard_files(self, tmp_path):
        cache = ScanCache(tmp_path, "fp-clear")
        cache.put_many(_record(f"d{i}") for i in range(10))
        cache.flush()
        cache.clear()
        cache.flush()
        assert len(ScanCache(tmp_path, "fp-clear")) == 0
        assert list((cache.namespace_dir / "shards").glob("*.json")) == []

    def test_error_records_not_cached(self, tmp_path):
        cache = ScanCache(tmp_path, "fp-err")
        cache.put(ScanRecord(name="bad", sha256=hash_source("bad"), error="boom"))
        assert len(cache) == 0

    def test_fingerprint_namespaces_are_isolated(self, tmp_path):
        a = ScanCache(tmp_path, "fp-one")
        a.put(_record("shared"))
        a.flush()
        assert ScanCache(tmp_path, "fp-two").get(hash_source("shared")) is None

    def test_wrong_fingerprint_shard_ignored(self, tmp_path):
        # A shard moved in from another model's namespace still embeds
        # that model's fingerprint, so it must not serve its records.
        other = ScanCache(tmp_path, "fp-other")
        other.put(_record("x"))
        other.flush()
        mine = tmp_path / "fp-mine" / "shards"
        mine.mkdir(parents=True)
        for shard in (other.namespace_dir / "shards").glob("*.json"):
            os.replace(shard, mine / shard.name)
        assert len(ScanCache(tmp_path, "fp-mine")) == 0


class TestCorruptFiles:
    def test_corrupt_legacy_file_quarantined(self, tmp_path, caplog):
        path = tmp_path / "fp-corrupt" / "shards" / "00.json"
        path.parent.mkdir(parents=True)
        path.write_text('{"schema_version": 2, "records": {tru')
        with caplog.at_level("WARNING", logger="repro.engine.cache"):
            cache = ScanCache(tmp_path, "fp-corrupt")
        assert len(cache) == 0
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert any("quarantining" in message for message in caplog.messages)

    def test_corrupt_shard_file_quarantined_and_rest_kept(self, tmp_path):
        cache = ScanCache(tmp_path, "fp-half")
        records = [_record(f"d{i}") for i in range(20)]
        cache.put_many(records)
        cache.flush()
        shard_files = sorted((cache.namespace_dir / "shards").glob("*.json"))
        victim = shard_files[0]
        lost = set(json.loads(victim.read_text())["records"])
        victim.write_text("NOT JSON AT ALL")
        fresh = ScanCache(tmp_path, "fp-half")
        assert len(fresh) == 20 - len(lost)
        assert victim.with_name(victim.name + ".corrupt").exists()
        survivors = [r for r in records if r.sha256 not in lost]
        assert all(fresh.get(r.sha256) is not None for r in survivors)

    def test_non_object_json_quarantined(self, tmp_path):
        path = tmp_path / "fp-lst" / "shards" / "00.json"
        path.parent.mkdir(parents=True)
        path.write_text("[1, 2, 3]")
        assert len(ScanCache(tmp_path, "fp-lst")) == 0
        assert path.with_name(path.name + ".corrupt").exists()


class TestLocking:
    def test_leftover_lock_file_does_not_block(self, tmp_path):
        # A lockfile left behind by a SIGKILLed scan holds no kernel lock,
        # so a fresh flush proceeds immediately (no staleness dance).
        cache = ScanCache(tmp_path, "fp-stale")
        cache.namespace_dir.mkdir(parents=True, exist_ok=True)
        lock_path = cache.namespace_dir / ".lock"
        lock_path.write_text("99999\n")
        old = time.time() - 3600
        os.utime(lock_path, (old, old))
        cache.put(_record("a"))
        assert cache.flush() is not None  # did not deadlock on the dead lock

    def test_held_lock_times_out_then_works_after_release(self, tmp_path):
        import fcntl

        cache = ScanCache(tmp_path, "fp-held")
        cache.namespace_dir.mkdir(parents=True, exist_ok=True)
        lock_path = cache.namespace_dir / ".lock"
        # Hold the kernel lock through an independent file description —
        # flock conflicts between separate opens even in one process.
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            cache._lock.timeout = 0.2
            cache.put(_record("a"))
            with pytest.raises(CacheLockTimeout):
                cache.flush()
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        assert cache.flush() is not None  # holder released -> lock acquired


# ---------------------------------------------------------------------------
# Concurrency stress (two+ writer processes against one cache directory)
# ---------------------------------------------------------------------------


def _writer_process(directory: str, fingerprint: str, start: int, count: int) -> None:
    """Write ``count`` records with interleaved flushes (stress worker)."""
    cache = ScanCache(directory, fingerprint)
    for i in range(start, start + count):
        cache.put(_record(f"design_{i}", label=i % 2))
        if i % 3 == 0:
            cache.flush()
    cache.flush()


class TestConcurrentWriters:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_parallel_writers_do_not_corrupt_the_store(self, tmp_path, overlap):
        n_procs, per_proc = 4, 25
        step = per_proc // 2 if overlap else per_proc
        processes = [
            multiprocessing.Process(
                target=_writer_process,
                args=(str(tmp_path), "fp-stress", p * step, per_proc),
            )
            for p in range(n_procs)
        ]
        for proc in processes:
            proc.start()
        for proc in processes:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        expected = {
            hash_source(f"design_{i}")
            for p in range(n_procs)
            for i in range(p * step, p * step + per_proc)
        }
        cache = ScanCache(tmp_path, "fp-stress")
        assert {sha for sha in expected if sha in cache} == expected
        # Every store file must be intact JSON with the right schema.
        for path in (cache.namespace_dir / "shards").glob("*.json"):
            data = json.loads(path.read_text())
            assert data["schema_version"] == CACHE_SCHEMA_VERSION
        assert not list(tmp_path.rglob("*.corrupt"))
        assert not list(tmp_path.rglob("*.tmp"))

    def test_flush_merges_concurrent_updates_between_handles(self, tmp_path):
        # Two names landing in the same shard file (same 2-hex-char prefix).
        seen: dict = {}
        pair = None
        for i in range(1000):
            prefix = hash_source(f"n{i}")[:2]
            if prefix in seen:
                pair = (seen[prefix], f"n{i}")
                break
            seen[prefix] = f"n{i}"
        assert pair is not None
        alpha, beta = pair
        first = ScanCache(tmp_path, "fp-merge")
        second = ScanCache(tmp_path, "fp-merge")  # opened before first flushes
        first.put(_record(alpha))
        first.flush()
        second.put(_record(beta))
        second.flush()  # must not clobber alpha, written meanwhile to the same shard
        merged = ScanCache(tmp_path, "fp-merge")
        assert merged.get(hash_source(alpha)) is not None
        assert merged.get(hash_source(beta)) is not None
        # The second handle also absorbed alpha during its merge-on-flush.
        assert hash_source(alpha) in second

    def test_reload_picks_up_other_writers(self, tmp_path):
        holder = ScanCache(tmp_path, "fp-reload")
        other = ScanCache(tmp_path, "fp-reload")
        other.put(_record("from_other"))
        other.flush()
        assert hash_source("from_other") not in holder
        holder.put(_record("local_unflushed"))
        holder.reload()
        assert hash_source("from_other") in holder
        assert hash_source("local_unflushed") in holder  # dirty records survive
