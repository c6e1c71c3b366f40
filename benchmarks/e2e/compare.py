#!/usr/bin/env python3
"""Compare two result documents of ``run.py``: ``compare.py A.json B.json``.

A is the parent (or the first of two A/A sets), B the change.  One row
per workload and end-to-end metric: both medians, how much worse B's
is, the wider of the two run-to-run spreads, the metric's bound, and a
verdict:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  it is within the bound, but the runs scatter by more
                than the bound and the two sets overlap, so "unchanged"
                cannot be claimed either.

Bounds come from ``BENCHMARK.json`` (and run.py's ``PARTIAL_BOUNDS``
for the metrics only some workloads have).  The sim-clock metrics must
also be bit-equal when both documents were run on one seed and size.
Exits 1 on any ``regressed`` row, on a higher failed/attempted share,
or on an incorrect B; ``unresolved`` rows are reported, not fatal.
"""

from __future__ import annotations

import json
import sys

from run import load_spec, metric_table

# Sim-clock outputs: bit-identical between runs of one seed and size.
DETERMINISTIC = ("delivery_ms_p50", "pssim_geometry", "pssim_color")


def worse_by(a: float, b: float, better: str) -> float:
    """Relative amount by which ``b`` is worse than ``a`` (negative: better)."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def verdict(a: dict, b: dict, meta: dict) -> tuple[str, float, float]:
    worse = worse_by(a["median"], b["median"], meta["better"])
    spread = max(a["spread"], b["spread"])
    if worse > meta["bound"]:
        return "regressed", worse, spread
    if meta["better"] == "higher":
        b_clear_of_a = b["min"] > a["max"]
    else:
        b_clear_of_a = b["max"] < a["min"]
    if spread > meta["bound"] and not b_clear_of_a:
        return "unresolved", worse, spread
    return "ok", worse, spread


def compare(doc_a: dict, doc_b: dict, table: dict) -> tuple[list[dict], list[str]]:
    """All rows plus the reasons (if any) the comparison fails."""
    rows, problems = [], []
    same_inputs = all(doc_a[k] == doc_b[k] for k in ("seed", "seconds", "smoke"))
    for name, entry_b in doc_b["workloads"].items():
        entry_a = doc_a["workloads"].get(name)
        if entry_a is None:
            problems.append(f"{name}: missing from A")
            continue
        for metric, b in entry_b["metrics"].items():
            a = entry_a["metrics"].get(metric)
            if a is None:
                problems.append(f"{name}.{metric}: missing from A")
                continue
            meta = table[metric]
            state, worse, spread = verdict(a, b, meta)
            if same_inputs and metric in DETERMINISTIC and a["values"] != b["values"]:
                state = "regressed"
                problems.append(f"{name}.{metric}: deterministic metric differs between A and B")
            elif state == "regressed":
                problems.append(f"{name}.{metric}: worse by {worse:.1%} (bound {meta['bound']:.1%})")
            rows.append({
                "workload": name, "metric": metric, "unit": meta["unit"],
                "a": a["median"], "b": b["median"], "worse_by": worse,
                "spread": spread, "bound": meta["bound"], "verdict": state,
            })
        share_a = entry_a["failed"] / entry_a["attempted"]
        share_b = entry_b["failed"] / entry_b["attempted"]
        if share_b > share_a:
            problems.append(f"{name}: failed share rose from {share_a:.4%} to {share_b:.4%}")
        if not entry_b["correct"]:
            problems.append(f"{name}: B's outputs are not correct")
        if same_inputs and entry_a["digests"] != entry_b["digests"]:
            # Not a failure by itself: a deliberate change of outputs
            # re-records the digest.  Shown so that it is never silent.
            print(f"note: {name}: output digest differs between A and B")
    return rows, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        doc_a = json.load(handle)
    with open(argv[1]) as handle:
        doc_b = json.load(handle)
    rows, problems = compare(doc_a, doc_b, metric_table(load_spec()))
    print(f"{'workload':<14s} {'metric':<22s} {'A':>12s} {'B':>12s} {'unit':<6s} "
          f"{'worse by':>9s} {'spread':>8s} {'bound':>7s}  verdict")
    for row in rows:
        print(f"{row['workload']:<14s} {row['metric']:<22s} {row['a']:>12.4f} {row['b']:>12.4f} "
              f"{row['unit']:<6s} {row['worse_by']:>8.2%} {row['spread']:>8.2%} "
              f"{row['bound']:>7.1%}  {row['verdict']}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
