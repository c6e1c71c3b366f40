#!/usr/bin/env python3
"""The repository's one end-to-end benchmark (see README.md here).

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/e2e/run.py [--repeats R] [--trace 1] [--smoke] [--out F]

With ``--workload`` it measures that workload once and ends with the
one-line JSON result ``BENCHMARK.json`` promises: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of an extra traced
run with ``--trace 1``.  Without it, it measures all four workloads,
``--repeats`` times each (default 5), interleaved round-robin so host
drift spreads evenly, and writes the result document.

Every run is a fresh ``worker.py`` process (this one stays idle while
it runs); a timing is the median over repeats, reported with min, max
and sample count; ``setup_s`` is the median over several set-ups per
run.  End-to-end numbers only ever come from untraced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"

SETUP_PROBES = 2          # extra set-up-only processes per run
CHILD_TIMEOUT_S = 170     # a run must end well inside the 180 s cap

# End-to-end metrics only some workloads have, with their regression
# bounds.  ``BENCHMARK.json`` can gate only metrics every workload
# reports, so these are listed there under ``per_layer`` (no bound) and
# gated by ``compare.py`` instead.
PARTIAL_BOUNDS = {
    "frames_per_s": 0.20,
    "delivery_ms_p50": 0.005,
    "pssim_geometry": 0.005,
    "pssim_color": 0.005,
    "req_ms_p50": 0.20,
    "req_ms_p95": 0.25,
}


class RunFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_table(spec: dict) -> dict:
    """name -> {unit, better, bound} for every end-to-end metric."""
    table = {m["name"]: dict(m) for m in spec["end_to_end"]}
    for metric in spec["per_layer"]:
        if metric["name"] in PARTIAL_BOUNDS:
            table[metric["name"]] = {**metric, "bound": PARTIAL_BOUNDS[metric["name"]]}
    return table


def spawn(workload: str, args, trace: int = 0, setup_only: bool = False) -> dict:
    """Run worker.py to completion and return the JSON it printed."""
    command = [
        sys.executable, str(WORKER),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    if trace and args.trace_out:
        Path(args.trace_out).mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(Path(args.trace_out) / f"spans_{workload}.jsonl")]
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as error:  # run() has killed and reaped it
        raise RunFailed(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{workload}: worker exited with code {done.returncode}")
    result = json.loads(lines[-1])
    if "checks" in result:
        result["correct"] = all(result["checks"].values())
    return result


def run_once(workload: str, args) -> dict:
    """One untraced measurement: set-up probes, then the measured run."""
    probes = [spawn(workload, args, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    run = spawn(workload, args)
    run["setup_samples"] = probes + [run["setup_s"]]
    run["metrics"]["setup_s"] = statistics.median(run["setup_samples"]) + run["setup_in_call_s"]
    return run


def run_traced(workload: str, args, reference: list[dict]) -> dict:
    """The traced run, judged against the untraced ``reference`` runs."""
    run = spawn(workload, args, trace=1)
    run["correct"] &= run["digest"] == reference[0]["digest"]   # tracing changes no output
    untraced = statistics.median(r["metrics"]["session_frames_per_s"] for r in reference)
    layers = run["layers"]
    layers["trace.overhead_pct"] = 100.0 * (untraced / run["metrics"]["session_frames_per_s"] - 1.0)
    # The end-to-end metrics that not every workload has ride along in
    # the per-layer list (PARTIAL_BOUNDS).
    for name in PARTIAL_BOUNDS:
        layers[name] = run["metrics"].get(name, 0.0)
    return run


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median.

    The 2nd- and 4th-ranked of five repeats: one run that a noisy
    neighbour hit does not widen it.
    """
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return (high - low) / abs(statistics.median(values))


def summarize(runs: list[dict], table: dict) -> dict:
    """Median / min / max / n / spread per end-to-end metric."""
    out = {}
    for name, meta in table.items():
        values = [run["metrics"][name] for run in runs if name in run["metrics"]]
        if not values:
            continue
        out[name] = {
            "median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values), "spread": spread(values),
            "values": values,
            "unit": meta["unit"], "better": meta["better"], "bound": meta["bound"],
        }
    return out


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(workloads: list[str], args, spec: dict) -> dict:
    """The whole pass: interleaved untraced repeats, then traced runs."""
    table = metric_table(spec)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    runs: dict[str, list] = {name: [] for name in workloads}
    for repeat in range(args.repeats):
        for name in workloads:
            runs[name].append(run_once(name, args))
            last = runs[name][-1]
            print(f"[{name} #{repeat + 1}] " + "  ".join(
                f"{k}={v:.4g}" for k, v in last["metrics"].items()), flush=True)
    document = {
        "schema": "e2e-bench/1",
        "git_sha": git_sha(),
        "host": runs[workloads[0]][0]["host"],
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "repeats": args.repeats, "setup_probes_per_run": SETUP_PROBES,
        "workloads": {},
    }
    for name in workloads:
        mine = runs[name]
        digests = sorted({run["digest"] for run in mine})
        entry = {
            "why": why[name],
            "metrics": summarize(mine, table),
            "attempted": sum(run["attempted"] for run in mine),
            "failed": sum(run["failed"] for run in mine),
            "failures": [run["failures"] for run in mine],
            "checks": [run["checks"] for run in mine],
            "digests": digests,
            # Same seed, same inputs: every repeat must produce the same
            # bytes.  Recorded, not pinned to a constant.
            "correct": all(run["correct"] for run in mine) and len(digests) == 1,
            "info": mine[-1].get("info", {}),
        }
        if args.trace:
            traced = run_traced(name, args, mine)
            print(f"[{name} traced] overhead={traced['layers']['trace.overhead_pct']:.2f}% "
                  f"coverage={traced['layers']['trace.coverage']:.4f}", flush=True)
            entry["layers"] = traced["layers"]
            entry["correct"] &= traced["correct"]
            entry["traced"] = {
                "attempted": traced["attempted"], "failed": traced["failed"],
                "checks": traced["checks"], "timed_wall_s": traced["timed_wall_s"],
            }
        document["workloads"][name] = entry
    return document


def print_report(document: dict, spec: dict) -> None:
    for name, entry in document["workloads"].items():
        print(f"\n== {name}: {'correct' if entry['correct'] else 'INCORRECT'}, "
              f"{entry['failed']} failed of {entry['attempted']} attempted")
        for metric, row in entry["metrics"].items():
            print(f"  {metric:<24s} {row['median']:>12.4f} {row['unit']:<6s} "
                  f"(min {row['min']:.4f}  max {row['max']:.4f}  n={row['n']})")
        if "layers" in entry:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for metric, value in entry["layers"].items():
                if value:
                    print(f"  {metric:<48s} {value:>12.4f} {units.get(metric, '')}")


def contract_line(entry: dict, spec: dict, traced: bool) -> str:
    """The last line of stdout BENCHMARK.json's consumer reads."""
    if traced:
        metrics = {
            m["name"]: {"value": entry["layers"].get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        attempted, failed = entry["traced"]["attempted"], entry["traced"]["failed"]
    else:
        metrics = {
            m["name"]: {"value": entry["metrics"][m["name"]]["median"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        attempted, failed = entry["attempted"], entry["failed"]
    return json.dumps(
        {"correct": bool(entry["correct"]), "attempted": int(attempted), "failed": int(failed),
         "metrics": metrics}
    )


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names, default=None,
                        help="measure this workload only and end with its one-line JSON result")
    parser.add_argument("--seed", type=int, default=0, help="feeds the generated inputs only")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="sizes one run (work per second is fixed, see worker.py)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one extra traced run per workload for the per-layer metrics")
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced runs per workload (default 1 with --workload, else 5;\n"
                             "2 with --smoke)")
    parser.add_argument("--smoke", action="store_true", help="same code path at tiny sizes")
    parser.add_argument("--out", default=None,
                        help="result document (default out/latest.json for a full pass;\n"
                             "the committed one is results/baseline.json)")
    parser.add_argument("--trace-out", default=None, help="directory for the raw spans (JSONL)")
    args = parser.parse_args(argv)
    if args.repeats is None:
        args.repeats = 1 if args.workload else (2 if args.smoke else 5)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2e benchmark: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else names
    try:
        document = measure(workloads, args, spec)
    except RunFailed as error:
        print(f"e2e benchmark: {error}", file=sys.stderr)
        return 1
    print_report(document, spec)

    out = args.out or (None if args.workload else HERE / "out" / "latest.json")
    if out is not None:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        if args.trace:
            for name, entry in document["workloads"].items():
                (out.parent / f"layers_{name}.json").write_text(
                    json.dumps(entry["layers"], indent=1, sort_keys=True) + "\n"
                )
        print(f"\nwrote {out}")
    if args.workload:
        print(contract_line(document["workloads"][args.workload], spec, bool(args.trace)))
        return 0   # the verdict is in the line above
    return 0 if all(e["correct"] for e in document["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
