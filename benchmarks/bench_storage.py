"""Storage backend shoot-out on the ForkBase storage-efficiency axes.

Compares the dict-backed ``memory`` store with the durable mmap +
compression ``pack`` store (and ``pack-raw``, the same with compression
off) on the axes the paper evaluates its storage substrate with:

- **bulk-put throughput** — ``put_many`` of a deduplicating corpus (MB/s);
- **cold get throughput** — every chunk fetched once after a fresh reopen
  (chunks/s), the descent-latency proxy;
- **hot get throughput** — the same fetches re-run warm;
- **read / write amplification** — raw device bytes per payload byte
  served / materialized;
- **dedup ratio and space** — logical vs physical vs on-disk bytes.

A second experiment measures what the decoded-node cache is worth: the
same POS-Tree point-lookup workload against a bare pack store and against
``NodeCacheStore`` layered on top.

Results go to the pytest-benchmark table, ``benchmarks/out/`` and the
machine-readable ``BENCH_storage.json`` at the repo root.

Knobs (for CI smoke runs): ``BENCH_STORAGE_CHUNKS`` (default 3000),
``BENCH_STORAGE_LOOKUPS`` (default 400).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import report, table
from repro.chunk import Chunk, ChunkType
from repro.store import InMemoryStore, NodeCacheStore, PackStore
from repro.store.packstore import _zstd

CHUNKS = int(os.environ.get("BENCH_STORAGE_CHUNKS", "3000"))
LOOKUPS = int(os.environ.get("BENCH_STORAGE_LOOKUPS", "400"))

JSON_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_storage.json")

#: backend name -> store factory taking a directory.
BACKENDS = {
    "memory": lambda directory: InMemoryStore(),
    "pack": lambda directory: PackStore(directory),
    "pack-raw": lambda directory: PackStore(directory, compression="none"),
}


def _corpus():
    """~70% distinct, ~30% duplicate chunks of compressible page-ish data.

    The duplicate share gives the dedup_ratio axis something to measure;
    payload sizes straddle the POS-Tree's typical page sizes.
    """
    chunks = []
    for i in range(CHUNKS):
        n = i % (CHUNKS * 7 // 10)  # re-offer the head of the keyspace
        body = (b"page-%06d|" % n) + (b"row-%04d;" % (n % 97)) * (20 + n % 60)
        chunks.append(Chunk(ChunkType.BLOB, body))
    return chunks


def _record(section: str, entry: dict, sub: str | None = None) -> None:
    """Merge one measurement into BENCH_storage.json (read-modify-write)."""
    data = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    data.setdefault("config", {}).update(
        {"chunks": CHUNKS, "lookups": LOOKUPS, "zstd_available": _zstd is not None}
    )
    if sub is None:
        data.setdefault(section, {}).update(entry)
    else:
        data.setdefault(section, {}).setdefault(sub, {}).update(entry)
    if "node_cache" in data and "hot_gets_per_s" in data["node_cache"]:
        cache = data["node_cache"]
        if cache.get("baseline_gets_per_s"):
            cache["speedup"] = round(
                cache["hot_gets_per_s"] / cache["baseline_gets_per_s"], 2
            )
    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    rows = [
        (
            name,
            row.get("bulk_put_mb_per_s", "-"),
            row.get("cold_get_chunks_per_s", "-"),
            row.get("hot_get_chunks_per_s", "-"),
            row.get("read_amplification", "-"),
            row.get("write_amplification", "-"),
            row.get("dedup_ratio", "-"),
            row.get("disk_bytes", "-"),
        )
        for name, row in sorted(data.get("backends", {}).items())
    ]
    report(
        "bench_storage",
        table(
            ("backend", "put MB/s", "cold get/s", "hot get/s",
             "read amp", "write amp", "dedup", "disk B"),
            rows,
        ),
    )


def _bench(benchmark, fn, setup=None):
    """Run through pytest-benchmark and return the best observed time."""
    if setup is None:
        benchmark.pedantic(fn, rounds=3, iterations=1, warmup_rounds=1)
    else:
        benchmark.pedantic(fn, setup=setup, rounds=3, iterations=1)
    return benchmark.stats.stats.min


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_bulk_put_throughput(benchmark, tmp_path_factory, backend):
    scratch = tmp_path_factory.mktemp(f"storage-{backend}")
    corpus = _corpus()
    logical = sum(c.size() for c in corpus)
    counter = [0]

    def setup():
        counter[0] += 1
        directory = str(scratch / f"s{counter[0]}")
        return (BACKENDS[backend](directory),), {}

    def bulk_put(store):
        store.put_many(corpus)
        store.close()

    put_seconds = _bench(benchmark, bulk_put, setup=setup)

    # Dedup and write amplification belong to the write phase, so snapshot
    # one final kept instance before close wipes its counters.
    directory = str(scratch / "final")
    store = BACKENDS[backend](directory)
    store.put_many(corpus)
    write_snap = store.stats_snapshot()
    disk = store.disk_size() if isinstance(store, PackStore) else (
        write_snap.materialized_bytes
    )
    store.close()

    _record(
        "backends",
        {
            "bulk_put_seconds": round(put_seconds, 6),
            "bulk_put_mb_per_s": round(logical / put_seconds / 1e6, 2),
            "write_amplification": round(write_snap.write_amplification, 4),
            "dedup_ratio": round(write_snap.dedup_ratio, 4),
            "logical_bytes": write_snap.logical_bytes,
            "physical_bytes": write_snap.physical_bytes,
            "disk_bytes": disk,
        },
        sub=backend,
    )


def _now() -> float:
    return time.perf_counter()


def test_get_throughput(benchmark, tmp_path_factory):
    """Cold and hot full-corpus sweeps, every backend interleaved.

    All backends are swept inside the same pass so machine-wide noise
    (frequency scaling, cache pressure from neighbouring tests) hits them
    equally — the per-backend numbers are min-of-rounds, the paper-shaped
    quantity.  Cold = the first sweep of a freshly opened instance (no
    decoded state, no live mmaps); hot = best warm re-sweep.
    """
    scratch = tmp_path_factory.mktemp("getters")
    corpus = _corpus()
    uids = list(dict.fromkeys(c.uid for c in corpus))

    for name, factory in BACKENDS.items():
        store = factory(str(scratch / name))
        store.put_many(corpus)
        store.close()

    cold: dict = {}
    hot: dict = {}
    read_amp: dict = {}
    for _ in range(3):
        for name, factory in BACKENDS.items():
            store = factory(str(scratch / name))
            if name == "memory":  # no durable layout to reopen
                store.put_many(corpus)
            before = store.stats_snapshot()
            start = _now()
            for uid in uids:
                store.get(uid)
            elapsed = max(_now() - start, 1e-9)
            cold[name] = min(cold.get(name, elapsed), elapsed)
            read_amp[name] = store.stats_snapshot().delta(before).read_amplification
            for _ in range(2):
                start = _now()
                for uid in uids:
                    store.get(uid)
                elapsed = max(_now() - start, 1e-9)
                hot[name] = min(hot.get(name, elapsed), elapsed)
            store.close()

    for name in BACKENDS:
        _record(
            "backends",
            {
                "cold_get_chunks_per_s": round(len(uids) / cold[name], 1),
                "hot_get_chunks_per_s": round(len(uids) / hot[name], 1),
                "read_amplification": round(read_amp[name], 4),
            },
            sub=name,
        )

    # Representative row for the pytest-benchmark table (and the hook that
    # keeps this test visible under --benchmark-only): a warm pack sweep.
    store = BACKENDS["pack"](str(scratch / "pack"))
    _bench(benchmark, lambda: [store.get(uid) for uid in uids])
    store.close()


def test_decoded_node_cache_speedup(benchmark, tmp_path_factory):
    """Hot repeated POS-Tree descents: bare pack vs decoded-node cache."""
    from repro.postree.tree import PosTree

    scratch = tmp_path_factory.mktemp("nodecache")
    pairs = [
        (b"key-%06d" % i, b"value-%06d" % i) for i in range(max(LOOKUPS * 10, 2000))
    ]
    keys = [pairs[i * len(pairs) // LOOKUPS][0] for i in range(LOOKUPS)]

    def build(store):
        return PosTree.from_pairs(store, pairs)

    directory = str(scratch / "bare")
    bare_store = PackStore(directory)
    bare_tree = build(bare_store)

    def bare_lookups():
        for key in keys:
            assert bare_tree.get(key) is not None

    bare_lookups()  # OS caches warm; this measures the decode cost
    bare_start = _now()
    for _ in range(5):
        bare_lookups()
    bare_seconds = max(_now() - bare_start, 1e-9)
    bare_store.close()

    cached_store = NodeCacheStore(PackStore(str(scratch / "cached")), capacity=8192)
    cached_tree = build(cached_store)

    def cached_lookups():
        for key in keys:
            assert cached_tree.get(key) is not None

    cached_lookups()  # populate the node cache
    seconds = _bench(benchmark, lambda: [cached_lookups() for _ in range(5)])
    hit_rate = cached_store.node_hit_rate
    cached_store.close()

    total = LOOKUPS * 5
    _record(
        "node_cache",
        {
            "baseline_gets_per_s": round(total / bare_seconds, 1),
            "hot_gets_per_s": round(total / seconds, 1),
            "node_hit_rate": round(hit_rate, 4),
            "lookups": total,
        },
    )


def test_gc_compaction_reclaim(benchmark, tmp_path_factory):
    """Pack-aware sweep: delete half the corpus, compact, measure reclaim."""
    scratch = tmp_path_factory.mktemp("compaction")
    corpus = _corpus()

    directory = str(scratch / "ps")
    store = PackStore(directory)
    store.put_many(corpus)
    uids = list(dict.fromkeys(c.uid for c in corpus))
    for uid in uids[: len(uids) // 2]:
        store.delete(uid)
    before = store.disk_size()

    seconds = _bench(benchmark, lambda: store.compact_segments() and None)
    after = store.disk_size()
    store.close()

    _record(
        "compaction",
        {
            "seconds": round(seconds, 6),
            "disk_bytes_before": before,
            "disk_bytes_after": after,
            "reclaimed_fraction": round(1 - after / before, 4) if before else 0.0,
        },
    )
