#!/usr/bin/env python3
"""End-to-end benchmark of the ForkBase engine.

Usage, from the repository root::

    python3 perfbench/run.py --workload kv_small --seed 1 --seconds 20 --trace 0

One run sets up the named workload (several times, reporting the median
set-up time), warms up, then drives it as one closed-loop client for
``--seconds`` and checks every result against a model.  ``--trace 0``
reports the end-to-end metrics.  ``--trace 1`` runs half the time with
every layer's public functions wrapped in spans, removes the wrappers,
runs the other half untraced, and reports the per-layer split plus the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run,
with provenance and (when traced) the spans of the first operations, is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def import_program():
    """Import the engine from this checkout's ``src``; exit 2 if it is absent."""
    sys.path[0:1] = [ROOT, SRC]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS

    if args.workload not in {w["name"] for w in WORKLOADS}:
        parser.error(f"unknown workload {args.workload!r}")
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    from perfbench.harness import run

    try:
        metrics, attempted, failed, record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = {m["name"]: m for m in (PER_LAYER if args.trace else END_TO_END)}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {failed} failed, error_rate {failed / max(attempted, 1):.6f}")
    for mismatch in record["mismatches"]:
        print(f"  wrong: {mismatch}")
    for kind, tail in record.get("highest_tails", {}).items():
        print(f"  {kind} p{tail['percentile'] * 100:g}: {tail['ms']:.6f} ms "
              f"(n={tail['samples']}, highest percentile with 10 samples beyond)")
    raw = record.get("raw", {})
    for name, (value, samples) in metrics.items():
        bound = spec[name].get("bound")
        print(f"  {name:36s} {value:14.6f} {spec[name]['unit']:8s} n={samples}"
              + (f" bound={bound}" if bound is not None else "")
              + (f" raw={raw[name]:.6f}" if name in raw else ""))
    record.update(workload=args.workload, trace=args.trace, attempted=attempted, failed=failed,
                  metrics={name: {"value": v, "unit": spec[name]["unit"], "samples": n,
                                  "bound": spec[name].get("bound")}
                           for name, (v, n) in metrics.items()})
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": spec[name]["unit"]}
                    for name, (value, _n) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
