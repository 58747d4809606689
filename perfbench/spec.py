"""What the benchmark measures: workloads, metrics, bounds and engine settings.

``BENCHMARK.json`` at the repository root mirrors this module; the
machinery tests check that the two agree, so this is the one place a
metric, bound or workload is defined.
"""

from __future__ import annotations

from typing import Dict, List

#: Seconds one run measures (the timed loop; set-up and checks are extra).
RUN_SECONDS = 20

#: Engine settings of every durable workload: pack is the backend the
#: roadmap keeps, ``batch`` is the engine's default flush policy and 4096
#: is the NodeCacheStore default capacity.
ENGINE_SETTINGS = {"backend": "pack", "fsync": "batch", "node_cache": 4096}

#: ClusterStore settings of ``cluster_kv``: the constructor defaults, in
#: memory, with no fault plane armed.
CLUSTER_SETTINGS = {"node_count": 4, "replication": 2}

WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "kv_small",
        "why": "2k Zipf keys of 20-field maps, put/get plus branch-merge of a random key: "
        "per-commit costs dominate and the hot set fits the node cache",
    },
    {
        "name": "dataset_versions",
        "why": "10k-row table with scattered upserts, forks, diffs and merges: POS-Tree "
        "splice/diff/merge and hashing dominate; nodes outgrow the node cache",
    },
    {
        "name": "csv_import",
        "why": "whole-CSV loads of fresh datasets and one-word near-duplicates (Fig. 4): "
        "parse, chunking, bulk build and pack append dominate; dedup sets bytes",
    },
    {
        "name": "cluster_kv",
        "why": "the kv_small mix over a 4-node, 2-way replicated ClusterStore: the only "
        "workload in which the cluster layer does any work",
    },
]

#: End-to-end metrics.  Every workload reports all of them: each one
#: writes, reads, diffs and merges.  ``bound`` is the share of the
#: parent's median by which a metric may worsen before a change counts
#: as a regression.  Every bound is 0.25: on a shared 2-vCPU machine the
#: run-to-run spread across ten seeds stays at 2-12% even after the
#: CPU-speed normalization in ``measure.py``, and a bound must clear it.  Times are in
#: reference milliseconds and seconds (see ``measure.py``).  Memory is
#: the peak resident set through set-up: the loop runs for a fixed time,
#: so memory after it would move with the machine's speed.
END_TO_END: List[Dict[str, object]] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "put_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "put_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "get_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "get_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "diff_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "diff_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "merge_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "write_mb_per_s", "unit": "MB/s", "better": "higher", "bound": 0.25},
    {"name": "bytes_per_user_byte", "unit": "ratio", "better": "lower", "bound": 0.25},
    {"name": "setup_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
]

#: Which verb each latency metric times, per workload.
VERBS = {
    "kv_small": {"put": "ForkBase.put", "get": "ForkBase.get_value",
                 "diff": "ForkBase.diff", "merge": "ForkBase.merge"},
    "dataset_versions": {"put": "DataTable.upsert_rows", "get": "DataTable.get_row",
                         "diff": "DataTable.diff", "merge": "DataTable.merge"},
    "csv_import": {"put": "DataTable.load_csv", "get": "DataTable.get_row",
                   "diff": "DataTable.diff", "merge": "DataTable.merge"},
    "cluster_kv": {"put": "ForkBase.put", "get": "ForkBase.get_value",
                   "diff": "ForkBase.diff", "merge": "ForkBase.merge"},
}

#: Tail percentile of each latency metric.  A run keeps measuring past
#: ``--seconds`` until every tail has at least MIN_BEYOND samples above it.
TAILS = {"put": 0.9, "get": 0.9, "diff": 0.9, "merge": 0.5}
MIN_BEYOND = 10

#: Per-layer metrics of the traced run.  ``ms/op`` and ``1/op`` are per
#: loop operation; a ``.ms`` or ``.self_ms`` is self time (children
#: excluded).  Layer names are the ``src/repro`` module names.
PER_LAYER: List[Dict[str, str]] = [
    {"name": "db.put.self_ms", "unit": "ms/op", "better": "lower"},
    {"name": "db.get.self_ms", "unit": "ms/op", "better": "lower"},
    {"name": "db.diff.self_ms", "unit": "ms/op", "better": "lower"},
    {"name": "db.merge.self_ms", "unit": "ms/op", "better": "lower"},
    {"name": "db.branch.self_ms", "unit": "ms/op", "better": "lower"},
    {"name": "table.self_ms", "unit": "ms/op", "better": "lower"},
    {"name": "table.parse_csv.ms", "unit": "ms/op", "better": "lower"},
    {"name": "types.wrap.ms", "unit": "ms/op", "better": "lower"},
    {"name": "types.load_object.ms", "unit": "ms/op", "better": "lower"},
    {"name": "types.fmap.ms", "unit": "ms/op", "better": "lower"},
    {"name": "rolling.push_many.ms", "unit": "ms/op", "better": "lower"},
    {"name": "rolling.entries", "unit": "1/op", "better": "lower"},
    {"name": "postree.build.ms", "unit": "ms/op", "better": "lower"},
    {"name": "postree.edit.ms", "unit": "ms/op", "better": "lower"},
    {"name": "postree.nodes_put_per_commit", "unit": "1/commit", "better": "lower"},
    {"name": "postree.diff.ms", "unit": "ms/op", "better": "lower"},
    {"name": "postree.diff.nodes_loaded", "unit": "1/call", "better": "lower"},
    {"name": "postree.diff.subtrees_pruned", "unit": "1/call", "better": "higher"},
    {"name": "postree.merge.ms", "unit": "ms/op", "better": "lower"},
    {"name": "vcs.lca.ms", "unit": "ms/op", "better": "lower"},
    {"name": "vcs.is_ancestor.ms", "unit": "ms/op", "better": "lower"},
    {"name": "vcs.commit.ms", "unit": "ms/op", "better": "lower"},
    {"name": "vcs.load.calls", "unit": "1/op", "better": "lower"},
    {"name": "vcs.journal.append.ms", "unit": "ms/op", "better": "lower"},
    {"name": "vcs.journal.sync.calls", "unit": "1/op", "better": "lower"},
    {"name": "chunk.compute_uid.calls", "unit": "1/op", "better": "lower"},
    {"name": "chunk.compute_uid.ms", "unit": "ms/op", "better": "lower"},
    {"name": "store.put.calls", "unit": "1/op", "better": "lower"},
    {"name": "store.put.ms", "unit": "ms/op", "better": "lower"},
    {"name": "store.put.new_fraction", "unit": "ratio", "better": "higher"},
    {"name": "store.get.calls", "unit": "1/op", "better": "lower"},
    {"name": "store.get.ms", "unit": "ms/op", "better": "lower"},
    {"name": "store.node_cache.hit_rate", "unit": "ratio", "better": "higher"},
    {"name": "store.io_write_bytes_per_user_byte", "unit": "ratio", "better": "lower"},
    {"name": "os.fsync.calls", "unit": "1/op", "better": "lower"},
    {"name": "os.fsync.ms", "unit": "ms/op", "better": "lower"},
    {"name": "faults.retry.calls", "unit": "1/op", "better": "lower"},
    {"name": "faults.retry.ms", "unit": "ms/op", "better": "lower"},
    {"name": "faults.crash.ms", "unit": "ms/op", "better": "lower"},
    {"name": "cluster.put.ms", "unit": "ms/op", "better": "lower"},
    {"name": "cluster.get.ms", "unit": "ms/op", "better": "lower"},
    {"name": "cluster.replica_writes_per_put", "unit": "1/put", "better": "lower"},
    {"name": "trace.ops_per_s_ratio", "unit": "ratio", "better": "higher"},
    {"name": "trace.self_sum_gap", "unit": "ratio", "better": "lower"},
]

#: Which end-to-end metric each layer metric should move, and on which
#: workload.  Outside the workloads named, each row predicts no change.
LAYER_MAP: List[Dict[str, object]] = [
    {"layer": ["db.<verb>.self_ms"], "moves": "matching verb's p50",
     "on": ["kv_small", "dataset_versions", "csv_import", "cluster_kv"]},
    {"layer": ["table.parse_csv.ms", "table.self_ms"], "moves": "write_mb_per_s",
     "on": ["csv_import"]},
    {"layer": ["types.wrap.ms", "types.load_object.ms"],
     "moves": "put_p50_ms, get_p50_ms", "on": ["kv_small"]},
    {"layer": ["rolling.push_many.ms", "rolling.entries", "postree.build.ms"],
     "moves": "write_mb_per_s", "on": ["csv_import"]},
    {"layer": ["postree.edit.ms", "postree.nodes_put_per_commit"],
     "moves": "put_p50_ms", "on": ["dataset_versions"]},
    {"layer": ["postree.diff.ms", "postree.diff.nodes_loaded",
               "postree.diff.subtrees_pruned"],
     "moves": "diff_p50_ms", "on": ["dataset_versions"]},
    {"layer": ["postree.merge.ms", "vcs.lca.ms"], "moves": "merge_p50_ms",
     "on": ["dataset_versions"]},
    {"layer": ["chunk.compute_uid.calls", "chunk.compute_uid.ms"],
     "moves": "put_p50_ms", "on": ["dataset_versions"]},
    {"layer": ["chunk.compute_uid.calls", "chunk.compute_uid.ms"],
     "moves": "write_mb_per_s", "on": ["csv_import"]},
    {"layer": ["store.put.calls", "store.put.ms", "store.put.new_fraction"],
     "moves": "put_p50_ms", "on": ["kv_small", "dataset_versions"]},
    {"layer": ["store.get.calls", "store.get.ms", "store.node_cache.hit_rate"],
     "moves": "get_p50_ms", "on": ["kv_small", "dataset_versions"]},
    {"layer": ["store.io_write_bytes_per_user_byte"], "moves": "bytes_per_user_byte",
     "on": ["csv_import", "dataset_versions"]},
    {"layer": ["vcs.commit.ms", "vcs.load.calls", "vcs.journal.append.ms",
               "vcs.journal.sync.calls"],
     "moves": "put_p50_ms", "on": ["kv_small"]},
    {"layer": ["os.fsync.calls", "os.fsync.ms"], "moves": "put_p90_ms",
     "on": ["kv_small"]},
    {"layer": ["faults.retry.calls", "faults.retry.ms", "faults.crash.ms"],
     "moves": "ops_per_s", "on": ["kv_small"]},
    {"layer": ["cluster.put.ms", "cluster.get.ms", "cluster.replica_writes_per_put"],
     "moves": "ops_per_s", "on": ["cluster_kv"]},
]

BENCHMARK_COMMAND = ["python3", "perfbench/run.py"]
BENCHMARK_PATHS = ["perfbench"]


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document this module defines."""
    return {
        "command": BENCHMARK_COMMAND,
        "paths": BENCHMARK_PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
