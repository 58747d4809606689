"""The trace points: which public function of which layer gets a span.

Span names start with the ``src/repro`` module (layer) name.  A chunk
store method runs in the ``cluster`` layer when its instance is a
ClusterStore and in the ``store`` layer otherwise, so replica
coordination is not charged to the single-node store code it calls.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.cluster.cluster import ClusterStore

from perfbench.tracing import Point, Tracer, layer_of


def _store_name(verb: str) -> Callable[[tuple], str]:
    def name(args: tuple) -> str:
        return f"cluster.{verb}" if isinstance(args[0], ClusterStore) else f"store.{verb}"

    return name


def _count_entries(tracer: Tracer, args: tuple, _kwargs: dict, _result: Any) -> None:
    tracer.values["rolling.entries"] += len(args[1])


def _count_diff(tracer: Tracer, _args: tuple, _kwargs: dict, result: Any) -> None:
    tracer.values["postree.diff.nodes_loaded"] += result.nodes_loaded
    tracer.values["postree.diff.subtrees_pruned"] += result.subtrees_pruned


def _count_tree_puts(tracer: Tracer, _args: tuple, _kwargs: dict, result: Any) -> None:
    """New chunks a POS-Tree operation stored, counted at the outermost store."""
    stack, spans = tracer.stack, tracer.spans
    if not stack or layer_of(spans[stack[-1]][0]) in ("store", "cluster"):
        return
    if any(layer_of(spans[index][0]) == "postree" for index in stack):
        tracer.values["postree.nodes_put"] += int(result)


def _span_retried_work(tracer: Tracer, args: tuple, kwargs: dict):
    """Give the work a retry policy runs its own span, in its caller's layer.

    Without it the seam's self time would include the writes and reads it
    retries; with it ``faults.retry`` is the cost of the seam alone.
    """
    spans, stack = tracer.spans, tracer.stack
    parent = spans[stack[-1]][3]
    layer = layer_of(spans[parent][0]) if parent > 0 else "faults"
    if len(args) > 1:
        return (args[0], tracer.wrap(args[1], f"{layer}.retried")) + args[2:], kwargs
    return args, dict(kwargs, fn=tracer.wrap(kwargs["fn"], f"{layer}.retried"))


def trace_points() -> List[Point]:
    """Every trace point, in install order."""
    points: List[Point] = [
        # table
        ("repro.table.csvio", "parse_csv", "table.parse_csv", None),
        ("repro.table.csvio", "render_csv", "table.render_csv", None),
    ]
    for method in ("load_csv", "upsert_rows", "get_row", "diff", "merge", "branch",
                   "export_csv", "row_map", "schema"):
        points.append(("repro.table.dataset:DataTable", method, "table.dataset", None))
    # db: one span name per engine verb
    for verb in ("put", "get", "diff", "merge", "branch", "delete_branch"):
        points.append(("repro.db.engine:ForkBase", verb, f"db.{verb}", None))
    points += [
        ("repro.db.engine:ForkBase", "get_value", "db.get", None),
        # types
        ("repro.types.convert", "wrap", "types.wrap", None),
        ("repro.types.convert", "unwrap", "types.unwrap", None),
        ("repro.types.base", "load_object", "types.load_object", None),
    ]
    for method in ("from_dict", "update", "get", "diff", "merge", "to_dict"):
        points.append(("repro.types.fmap:FMap", method, "types.fmap", None))
    points += [
        # postree
        ("repro.postree.builder", "bulk_build", "postree.build", None),
        ("repro.postree.edit", "apply_edits", "postree.edit", None),
        ("repro.postree.diff", "diff_trees", "postree.diff", _count_diff),
        ("repro.postree.merge", "three_way_merge", "postree.merge", None),
        ("repro.postree.tree:PosTree", "get", "postree.get", None),
        # rolling
        ("repro.rolling.chunker:EntryChunker", "push_many", "rolling.push_many",
         _count_entries),
        ("repro.rolling.fast:VectorEntryChunker", "push_many", "rolling.push_many",
         _count_entries),
        # chunk
        ("repro.chunk.chunk:Chunk", "compute_uid", "chunk.compute_uid", None),
        # vcs
        ("repro.vcs.graph:VersionGraph", "commit", "vcs.commit", None),
        ("repro.vcs.graph:VersionGraph", "load", "vcs.load", None),
        ("repro.vcs.graph:VersionGraph", "lowest_common_ancestor", "vcs.lca", None),
        ("repro.vcs.graph:VersionGraph", "is_ancestor", "vcs.is_ancestor", None),
        ("repro.vcs.journal:CommitJournal", "append", "vcs.journal.append", None),
        ("repro.vcs.journal:CommitJournal", "sync", "vcs.journal.sync", None),
        # faults: the retry seam and the crash seams every durable write crosses
        ("repro.faults.retry:RetryPolicy", "call", "faults.retry", None,
         _span_retried_work),
        ("repro.faults.crash", "crashpoint", "faults.crash", None),
        ("repro.faults.crash", "crashing_write", "faults.crash", None),
        # cluster
        ("repro.cluster.cluster:ClusterStore", "put", "cluster.put", _count_tree_puts),
        ("repro.cluster.node:StorageNode", "put", "cluster.node_put", None),
        ("repro.cluster.node:StorageNode", "get", "cluster.node_get", None),
        # store
        ("repro.store.base:ChunkStore", "put", _store_name("put"), _count_tree_puts),
        ("repro.store.base:ChunkStore", "put_many", _store_name("put"), _count_tree_puts),
        ("repro.store.base:ChunkStore", "get", _store_name("get"), None),
        ("repro.store.base:ChunkStore", "get_maybe", _store_name("get"), None),
        ("repro.store.base:ChunkStore", "has", _store_name("has"), None),
        ("repro.store.nodecache:NodeCacheStore", "get_node", "store.get", None),
        # the device
        ("repro.store.durability", "write_bytes", "os.write", None),
        ("os", "fsync", "os.fsync", None),
    ]
    return points
