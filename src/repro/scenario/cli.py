"""Scenario commands: list, run, record, and replay chaos scenarios.

The ``scenario`` subcommand of ``python -m repro`` (its flags are one
required choice, declared in :func:`repro.cli.build_parser`)::

    python -m repro scenario --list-scenarios
    python -m repro scenario --scenario handoff-cellular-wifi --record r.jsonl
    python -m repro scenario --replay r.jsonl
    python -m repro scenario --replay-corpus tests/goldens
    python -m repro scenario --run-zoo

Exit codes: 0 success, 1 replay divergence, 2 usage/artifact error,
3 invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main"]

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3


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

    try:
        spec, diff, report = replay_artifact(path)
    except ArtifactError as error:
        print(f"error: {path}: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(diff.format())
    if not diff.matches:
        return EXIT_DIVERGED
    return _check_invariants(spec, report, check_invariants)


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


def main(args: argparse.Namespace) -> int:
    """Run the ``scenario`` subcommand ``repro.cli`` parsed."""
    if args.list_scenarios:
        return _cmd_list()
    if args.scenario is not None:
        return _cmd_scenario(args)
    if args.replay is not None:
        return _replay_one(Path(args.replay), not args.no_invariants)
    if args.replay_corpus is not None:
        return _cmd_replay_corpus(args.replay_corpus, not args.no_invariants)
    return _cmd_run_zoo(not args.no_invariants)
