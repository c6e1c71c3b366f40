"""Scenario CLI: list, run, record, and replay chaos scenarios.

Routed from ``python -m repro`` when the first argument is a scenario
flag (or the ``scenario`` word)::

    python -m repro --list-scenarios
    python -m repro --scenario handoff-cellular-wifi --record r.jsonl
    python -m repro --replay r.jsonl
    python -m repro --replay-corpus tests/goldens
    python -m repro --run-zoo

Exit codes: 0 success, 1 replay divergence, 2 usage/artifact error,
3 invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro scenario",
        description="deterministic chaos scenarios: record, replay, regress",
    )
    parser.add_argument(
        "--scenario", metavar="NAME", default=None,
        help="zoo scenario to run (see --list-scenarios)",
    )
    parser.add_argument(
        "--list-scenarios", action="store_true",
        help="list the scenario zoo and exit",
    )
    parser.add_argument(
        "--record", metavar="PATH", default=None,
        help="with --scenario: write the run's recording artifact here",
    )
    parser.add_argument(
        "--replay", metavar="PATH", default=None,
        help="replay a recording and diff against it",
    )
    parser.add_argument(
        "--replay-corpus", metavar="DIR", default=None,
        help="replay every *.jsonl recording in a directory (CI regression)",
    )
    parser.add_argument(
        "--run-zoo", action="store_true",
        help="run every zoo scenario through the invariant checker",
    )
    parser.add_argument(
        "--frames", type=int, default=None,
        help="with --scenario: override the spec's frame count",
    )
    parser.add_argument(
        "--no-invariants", action="store_true",
        help="skip the invariant checker (diff-only replay)",
    )
    return parser


def _check_invariants(spec, report, enabled: bool) -> int:
    if not enabled:
        return EXIT_OK
    from repro.scenario.invariants import check_report

    problems = check_report(report)
    if problems:
        print(f"invariant violations ({spec.name}):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_list() -> int:
    from repro.scenario.zoo import SCENARIOS

    width = max(len(name) for name in SCENARIOS)
    for spec in SCENARIOS.values():
        tags = f" [{','.join(spec.tags)}]" if spec.tags else ""
        print(f"{spec.name:<{width}s}  {spec.frames:>4d}f  {spec.description}{tags}")
    return EXIT_OK


def _cmd_scenario(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.scenario.recorder import artifact_records, write_artifact
    from repro.scenario.runner import run_scenario
    from repro.scenario.zoo import get_scenario

    try:
        spec = get_scenario(args.scenario)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    if args.frames is not None:
        spec = replace(spec, frames=args.frames)
    report = run_scenario(spec)
    print(report.summary())
    if args.record is not None:
        digest = write_artifact(args.record, artifact_records(spec, report))
        print(f"recorded {spec.name} -> {args.record} (sha256 {digest[:12]})")
    return _check_invariants(spec, report, not args.no_invariants)


def _replay_one(path: Path, check_invariants: bool) -> int:
    from repro.scenario.replay import ArtifactError, replay_artifact
    from repro.scenario.spec import ScenarioSpec

    try:
        diff, report = replay_artifact(path)
    except ArtifactError as error:
        print(f"error: {path}: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(diff.format())
    if not diff.matches:
        return EXIT_DIVERGED
    if check_invariants:
        from repro.scenario.replay import load_artifact

        records, _ = load_artifact(path)
        spec = ScenarioSpec.from_dict(records[0]["spec"])
        return _check_invariants(spec, report, True)
    return EXIT_OK


def _cmd_replay_corpus(directory: str, check_invariants: bool) -> int:
    corpus = sorted(Path(directory).glob("*.jsonl"))
    if not corpus:
        print(f"error: no *.jsonl recordings in {directory}", file=sys.stderr)
        return EXIT_USAGE
    worst = EXIT_OK
    for path in corpus:
        code = _replay_one(path, check_invariants)
        worst = max(worst, code)
    print(f"corpus: {len(corpus)} recording(s), exit {worst}")
    return worst


def _cmd_run_zoo(check_invariants: bool) -> int:
    from repro.scenario.runner import run_scenario
    from repro.scenario.zoo import SCENARIOS

    worst = EXIT_OK
    for spec in SCENARIOS.values():
        report = run_scenario(spec)
        print(f"{spec.name}: {report.summary()}")
        worst = max(worst, _check_invariants(spec, report, check_invariants))
    return worst


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    actions = sum(
        1
        for active in (
            args.list_scenarios,
            args.scenario is not None,
            args.replay is not None,
            args.replay_corpus is not None,
            args.run_zoo,
        )
        if active
    )
    if actions != 1:
        print(
            "error: pick exactly one of --scenario / --list-scenarios / "
            "--replay / --replay-corpus / --run-zoo",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.list_scenarios:
        return _cmd_list()
    if args.scenario is not None:
        return _cmd_scenario(args)
    if args.replay is not None:
        return _replay_one(Path(args.replay), not args.no_invariants)
    if args.replay_corpus is not None:
        return _cmd_replay_corpus(args.replay_corpus, not args.no_invariants)
    return _cmd_run_zoo(not args.no_invariants)
