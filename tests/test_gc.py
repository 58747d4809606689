"""Tests for mark-and-sweep garbage collection (repro.store.gc)."""

import pytest

from repro.cluster import ClusterStore
from repro.db import ForkBase
from repro.errors import StoreError
from repro.security import Verifier
from repro.store import InMemoryStore, PackStore
from repro.store.gc import collect_garbage, compact_into, mark_live


@pytest.fixture
def engine_with_garbage():
    """An engine where old heads became unreachable via branch deletion."""
    engine = ForkBase(clock=lambda: 0.0)
    engine.put("keep", {f"k{i:03d}": "v" for i in range(500)})
    engine.put("doomed", {f"d{i:03d}": "x" * 50 for i in range(500)})
    engine.branch("doomed", "side")
    engine.put("doomed", {f"d{i:03d}": "y" * 50 for i in range(500)}, branch="side")
    # Drop every reference to the 'doomed' object's versions.
    engine.delete_branch("doomed", "side")
    engine.delete_branch("doomed", "master")
    return engine


class TestMarkLive:
    def test_marks_value_tree_and_history(self, engine):
        engine.put("k", {"a": "1"})
        engine.put("k", {"a": "2"})
        live = mark_live(engine.store, [engine.head("k")])
        # Head FNode + parent FNode + two value roots at minimum.
        assert len(live) >= 4
        assert engine.head("k") in live

    def test_empty_roots(self, engine):
        engine.put("k", "v")
        assert mark_live(engine.store, []) == set()


class TestCollect:
    def test_dry_run_measures_without_sweeping(self, engine_with_garbage):
        engine = engine_with_garbage
        before = len(engine.store)
        report = collect_garbage(engine, dry_run=True)
        assert report.swept_chunks > 0
        assert report.reclaim_fraction > 0
        assert len(engine.store) == before

    def test_sweep_removes_only_garbage(self, engine_with_garbage):
        engine = engine_with_garbage
        report = collect_garbage(engine)
        assert report.swept_chunks > 0
        # Live data still fully readable and verifiable.
        assert engine.get_value("keep")[b"k000"] == b"v"
        assert Verifier(engine.store).verify_version(engine.head("keep")).ok

    def test_sweep_is_idempotent(self, engine_with_garbage):
        engine = engine_with_garbage
        collect_garbage(engine)
        second = collect_garbage(engine)
        assert second.swept_chunks == 0

    def test_nothing_swept_when_all_live(self, engine):
        engine.put("k", {"a": "1"})
        report = collect_garbage(engine)
        assert report.swept_chunks == 0
        assert report.live_chunks == len(engine.store)

    def test_shared_pages_survive_partial_deletion(self, engine):
        """Pages shared between a deleted branch and a live one stay."""
        engine.put("k", {f"r{i:04d}": "data" for i in range(2000)})
        engine.branch("k", "dying")
        engine.put(
            "k",
            {**{f"r{i:04d}": "data" for i in range(2000)}, "extra": "1"},
            branch="dying",
        )
        engine.delete_branch("k", "dying")
        collect_garbage(engine)
        assert engine.get_value("k")[b"r0000"] == b"data"
        assert Verifier(engine.store).verify_version(engine.head("k")).ok

    def test_extra_roots_pin_chunks(self, engine_with_garbage):
        engine = engine_with_garbage
        # Recover one doomed head uid first (before sweeping).
        all_uids = set(engine.store.ids())
        report_dry = collect_garbage(engine, dry_run=True)
        from repro.chunk import ChunkType

        doomed_fnodes = [
            uid
            for uid in all_uids
            if engine.store.get(uid).type == ChunkType.FNODE
            and uid not in mark_live(
                engine.store,
                [h for _, _, h in engine.branch_table.all_heads()],
            )
        ]
        pinned = doomed_fnodes[0]
        report = collect_garbage(engine, extra_roots=[pinned])
        assert engine.store.has(pinned)
        assert report.swept_chunks < report_dry.swept_chunks

    def test_in_place_sweep_requires_memory_store(self):
        # A replicated cluster store cannot sweep in place.
        engine = ForkBase(store=ClusterStore(node_count=3, replication=2))
        engine.put("k", "v")
        engine.put("dead", "x")
        engine.delete_branch("dead", "master")
        with pytest.raises(StoreError):
            collect_garbage(engine)


class TestCompaction:
    def test_compact_copies_only_live(self, engine_with_garbage):
        engine = engine_with_garbage
        target = InMemoryStore()
        report = compact_into(engine, target)
        assert len(target) == report.live_chunks
        assert len(target) < len(engine.store)
        # The compacted store serves the live data.
        compacted = ForkBase(store=target, clock=lambda: 0.0)
        compacted.branch_table = engine.branch_table
        assert compacted.get_value("keep")[b"k000"] == b"v"
        assert Verifier(target).verify_version(engine.head("keep")).ok

    def test_compact_to_file_store(self, engine_with_garbage, tmp_path):
        # The on-disk target is the pack store, the one durable backend.
        engine = engine_with_garbage
        with PackStore(str(tmp_path / "compact")) as target:
            compact_into(engine, target)
            assert Verifier(target).verify_version(engine.head("keep")).ok
