#!/usr/bin/env python3
"""Summarize the run records under ``perfbench/out/`` into ``perfbench/results.json``.

Usage, from the repository root, after running each workload with several
seeds (``--trace 0``) and once traced (``--trace 1``)::

    python3 perfbench/summarize.py

For every end-to-end metric it keeps the values of all seeds, their median,
quartiles and the quartile spread as a share of the median; for the traced
runs, the per-layer medians and the tracing overhead.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT]

from perfbench import spec  # noqa: E402


def summarize(records):
    out = {"workloads": {}, "layer_map": spec.LAYER_MAP, "verbs": spec.VERBS,
           "tails": spec.TAILS}
    why = {w["name"]: w["why"] for w in spec.WORKLOADS}
    for workload in why:
        runs = [r for r in records if r["workload"] == workload]
        if not runs:
            continue
        entry = {"why": why[workload], "provenance": runs[0]["provenance"]}
        plain = sorted((r for r in runs if not r["trace"]), key=lambda r: r["provenance"]["seed"])
        if plain:
            entry["seeds"] = [r["provenance"]["seed"] for r in plain]
            entry["correct"] = all(r["failed"] == 0 for r in plain)
            entry["end_to_end"] = {}
            for metric in spec.END_TO_END:
                name = metric["name"]
                values = [r["metrics"][name]["value"] for r in plain]
                median = statistics.median(values)
                q1, _q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                               else (median, median, median))
                entry["end_to_end"][name] = {
                    "unit": metric["unit"], "bound": metric["bound"], "median": median,
                    "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                    "samples_per_run": statistics.median(
                        r["metrics"][name]["samples"] for r in plain),
                    "values": values,
                }
        traced = [r for r in runs if r["trace"]]
        if traced:
            entry["per_layer"] = {
                metric["name"]: {
                    "unit": metric["unit"],
                    "median": statistics.median(r["metrics"][metric["name"]]["value"]
                                                for r in traced),
                }
                for metric in spec.PER_LAYER
            }
            entry["traced_seeds"] = [r["provenance"]["seed"] for r in traced]
        out["workloads"][workload] = entry
    return out


def main():
    records = []
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "out", "*.json"))):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    result = summarize(records)
    target = os.path.join(ROOT, "perfbench", "results.json")
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(f"wrote {target} from {len(records)} run records")


if __name__ == "__main__":
    main()
