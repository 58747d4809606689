"""One benchmark run: set-up, warm-up, the timed loop, the traced split, checks.

``run.py`` imports this module once the program is importable.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

from repro.rolling.fast import numpy_available
from repro.store.nodecache import NodeCacheStore

from perfbench.layers import trace_points
from perfbench.measure import (
    REFERENCE_KERNEL_S,
    Recorder,
    highest_supported,
    kernel,
    peak_rss_mb,
    percentile,
    samples_beyond,
)
from perfbench.spec import MIN_BEYOND, TAILS
from perfbench.tracing import Patcher, Tracer, import_package
from perfbench.workloads import WORKLOAD_TYPES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Untimed loop seconds before measuring: lazy imports, codec set-up and
#: the node cache settle here.
WARMUP_S = 1.5
#: Set-up repeats: at least this many, more while they total under a second.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 15
#: A run keeps going past ``--seconds`` only to fill its tails, up to this factor.
MAX_OVERRUN = 3.0
#: The traced run fails when a verb's layer self times miss its wall time by more.
SELF_SUM_TOLERANCE = 0.10


def run_loop(workload, rec, seconds, fill_tails):
    """Step the workload for ``seconds``; return (wall seconds, failed steps)."""
    failures = 0
    start = time.perf_counter()
    deadline = start + seconds
    hard_stop = start + seconds * MAX_OVERRUN
    while True:
        now = time.perf_counter()
        if now >= hard_stop:
            break
        if now >= deadline and (
            not fill_tails
            or all(samples_beyond(len(rec.samples[k]), q) >= MIN_BEYOND for k, q in TAILS.items())
        ):
            break
        try:
            workload.step(rec)
        except Exception:  # a failed op is counted, reported and the run goes on
            failures += 1
            if failures <= 3:
                traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - start, failures


def set_up(workload):
    """Run the workload's set-up repeatedly; keep the last engine.

    Returns (raw, normalized) seconds per repeat.  Each repeat is scaled
    by the kernel timings taken just before and just after it.
    """
    raw, normalized = [], []
    while len(raw) < SETUP_REPEATS or (sum(raw) < SETUP_MIN_S and len(raw) < SETUP_MAX_REPEATS):
        workload.discard()
        gc.collect()
        kernels = [kernel() for _ in range(3)]
        start = time.perf_counter()
        workload.setup()
        raw.append(time.perf_counter() - start)
        kernels += [kernel() for _ in range(3)]
        normalized.append(raw[-1] * REFERENCE_KERNEL_S / statistics.median(kernels))
    return raw, normalized


def end_to_end(rec, setup_times, setup_rss_mb, disk_before, disk_after):
    """The end-to-end metrics, each as (value, samples), plus their raw values."""
    raw_setup, normalized_setup = setup_times
    metrics, raw = {}, {}
    for values, normalize in ((metrics, True), (raw, False)):
        pick = rec.normalized if normalize else rec.raw
        ms = {kind: [s * 1e3 for s in pick(kind)] for kind in TAILS}
        setup = normalized_setup if normalize else raw_setup
        values["setup_s"] = (statistics.median(setup), len(setup))
        values["ops_per_s"] = (rec.ops / rec.busy_s(normalize), rec.ops)
        for kind, tail in TAILS.items():
            values[f"{kind}_p50_ms"] = (percentile(ms[kind], 0.5), len(ms[kind]))
            if tail != 0.5:
                name = f"{kind}_p{round(tail * 100)}_ms"
                values[name] = (percentile(ms[kind], tail), len(ms[kind]))
        put_s = sum(ms["put"]) / 1e3
        values["write_mb_per_s"] = (rec.user_bytes / put_s / 1e6, len(ms["put"]))
    metrics["bytes_per_user_byte"] = ((disk_after - disk_before) / rec.user_bytes, rec.ops)
    metrics["setup_rss_mb"] = (setup_rss_mb, len(raw_setup))
    return metrics, {name: value for name, (value, _n) in raw.items()}


def highest_tails(rec):
    """Per verb: the highest percentile with ten samples beyond it, in ms."""
    out = {}
    for kind in TAILS:
        ms = [s * 1e3 for s in rec.normalized(kind)]
        tail = highest_supported(len(ms))
        out[kind] = {"samples": len(ms), "percentile": tail, "ms": percentile(ms, tail)}
    return out


def store_counters(workload):
    """Counters of the outermost store, the node cache and the pack file, now."""
    store = workload.db.store
    out = {"puts_new": store.stats.puts_new, "puts_dup": store.stats.puts_dup,
           "node_hits": 0, "node_lookups": 0, "io_write_bytes": 0}
    if isinstance(store, NodeCacheStore):
        out["node_hits"], out["node_lookups"] = store.node_hits, store.node_lookups
        out["io_write_bytes"] = store.backing.stats.io_write_bytes
    return out


def per_layer(tracer, traced, untraced):
    """The per-layer metrics of a traced run, self times in reference ms."""
    ops = traced.ops
    calls, values = tracer.calls, tracer.values
    scale = traced.busy_s() / traced.busy_s(normalize=False)

    def ms(*names):
        return sum(tracer.self_ns.get(name, 0) for name in names) / 1e6 / ops * scale

    def ratio(num, den):
        return num / den if den else 0.0

    delta = traced.counted
    table = [name for name in tracer.self_ns if name.startswith("table.")]
    metrics = {
        "db.put.self_ms": ms("db.put"),
        "db.get.self_ms": ms("db.get"),
        "db.diff.self_ms": ms("db.diff"),
        "db.merge.self_ms": ms("db.merge"),
        "db.branch.self_ms": ms("db.branch", "db.delete_branch"),
        "table.self_ms": ms(*table),
        "table.parse_csv.ms": ms("table.parse_csv"),
        "types.wrap.ms": ms("types.wrap"),
        "types.load_object.ms": ms("types.load_object"),
        "types.fmap.ms": ms("types.fmap"),
        "rolling.push_many.ms": ms("rolling.push_many"),
        "rolling.entries": values["rolling.entries"] / ops,
        "postree.build.ms": ms("postree.build"),
        "postree.edit.ms": ms("postree.edit"),
        "postree.nodes_put_per_commit": ratio(values["postree.nodes_put"], calls["vcs.commit"]),
        "postree.diff.ms": ms("postree.diff"),
        "postree.diff.nodes_loaded": ratio(values["postree.diff.nodes_loaded"],
                                           calls["postree.diff"]),
        "postree.diff.subtrees_pruned": ratio(values["postree.diff.subtrees_pruned"],
                                              calls["postree.diff"]),
        "postree.merge.ms": ms("postree.merge"),
        "vcs.lca.ms": ms("vcs.lca"),
        "vcs.is_ancestor.ms": ms("vcs.is_ancestor"),
        "vcs.commit.ms": ms("vcs.commit"),
        "vcs.load.calls": calls["vcs.load"] / ops,
        "vcs.journal.append.ms": ms("vcs.journal.append"),
        "vcs.journal.sync.calls": calls["vcs.journal.sync"] / ops,
        "chunk.compute_uid.calls": calls["chunk.compute_uid"] / ops,
        "chunk.compute_uid.ms": ms("chunk.compute_uid"),
        "store.put.calls": tracer.outer_calls["store.put"] / ops,
        "store.put.ms": ms("store.put"),
        "store.put.new_fraction": ratio(delta["puts_new"], delta["puts_new"] + delta["puts_dup"]),
        "store.get.calls": tracer.outer_calls["store.get"] / ops,
        "store.get.ms": ms("store.get"),
        "store.node_cache.hit_rate": ratio(delta["node_hits"], delta["node_lookups"]),
        "store.io_write_bytes_per_user_byte": ratio(delta["io_write_bytes"], traced.user_bytes),
        "os.fsync.calls": calls["os.fsync"] / ops,
        "os.fsync.ms": ms("os.fsync"),
        "faults.retry.calls": calls["faults.retry"] / ops,
        "faults.retry.ms": ms("faults.retry"),
        "faults.crash.ms": ms("faults.crash"),
        "cluster.put.ms": ms("cluster.put"),
        "cluster.get.ms": ms("cluster.get"),
        "cluster.replica_writes_per_put": ratio(calls["cluster.node_put"],
                                                tracer.outer_calls["cluster.put"]),
        "trace.ops_per_s_ratio": (traced.ops / traced.busy_s()) / (untraced.ops / untraced.busy_s()),
        "trace.self_sum_gap": max(self_sum_gaps(tracer).values()),
    }
    return {name: (value, ops) for name, value in metrics.items()}


def self_sum_gaps(tracer):
    """Self-time gaps of the verbs the end-to-end latencies time."""
    gaps = tracer.self_sum_gaps()
    return {kind: gaps.get(kind, 0.0) for kind in TAILS}


def commit():
    """The checkout's git commit, or "unknown" outside a git work tree of its own."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def provenance(args, workload):
    try:
        import zstandard  # noqa: F401
        zstd = True
    except ImportError:
        zstd = False
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy_available(),
        "zstandard": zstd,
        "nproc": os.cpu_count(),
        "settings": workload.settings(),
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": workload.sizes(),
        "client": "one closed-loop client, single thread, in process",
    }


def run(args, workdir):
    """One run; returns (metrics, ops attempted, ops failed, run record)."""
    workload = WORKLOAD_TYPES[args.workload](args.seed, workdir)
    setup_times = set_up(workload)
    setup_rss = peak_rss_mb()
    warm = Recorder()
    _wall, warm_failures = run_loop(workload, warm, WARMUP_S, fill_tails=False)
    gc.collect()
    record = {"provenance": provenance(args, workload)}
    failures = warm_failures
    rec = Recorder()
    if not args.trace:
        disk_before = workload.disk_bytes()
        wall, failed = run_loop(workload, rec, args.seconds, fill_tails=True)
        metrics, record["raw"] = end_to_end(rec, setup_times, setup_rss, disk_before,
                                            workload.disk_bytes())
        record["peak_rss_mb_after_loop"] = peak_rss_mb()
        record["highest_tails"] = highest_tails(rec)
        record["kernel_s"] = {"median": statistics.median(rec.probe.took),
                              "samples": len(rec.probe.took)}
        recorders = [warm, rec]
    else:
        metrics, traced, failed, dump = traced_run(args, workload, rec)
        recorders = [warm, traced, rec]
        record["trace"] = dump
        wall = None
    failures += failed
    try:
        workload.check(rec)
        workload.close()
    except Exception:  # a check that cannot even run is a failed check
        failures += 1
        traceback.print_exc(file=sys.stderr)
    mismatches = [m for r in recorders for m in r.mismatches]
    attempted = sum(r.ops for r in recorders) + failures
    record.update(loop_wall_s=wall, samples={k: len(v) for k, v in rec.samples.items()},
                  mismatches=mismatches[:20])
    return metrics, attempted, failures + len(mismatches), record


def traced_run(args, workload, rec):
    """Half the time traced, wrappers removed and checked, half untraced."""
    import_package("repro")
    points = trace_points()
    tracer = Tracer()
    patcher = Patcher(tracer)
    traced = Recorder(tracer, counters=lambda: store_counters(workload))
    patcher.install(points)
    try:
        _wall, failed = run_loop(workload, traced, args.seconds / 2, fill_tails=False)
    finally:
        patcher.uninstall()
    patcher.check_restored()
    _wall, failed_untraced = run_loop(workload, rec, args.seconds / 2, fill_tails=False)
    metrics = per_layer(tracer, traced, rec)
    for kind, gap in self_sum_gaps(tracer).items():
        traced.expect(gap <= SELF_SUM_TOLERANCE,
                      f"traced {kind}: layer self times miss wall time by {gap:.1%}")
    return metrics, traced, failed + failed_untraced, tracer.dump()
