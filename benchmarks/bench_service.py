"""Service churn benchmark: the session service under seeded load.

Hosts the session service in-process and drives it with
:mod:`repro.service.loadgen` -- thousands of simulated clients
arriving, leaving, and polling across sessions at mixed rate tiers,
with kill storms dropped mid-run.  Reports control-plane throughput
(requests/s), media-plane latency (session tick p50/p99), and the
churn-survival ledger (5xx count, casualties, leaked drivers/segments).

Writes ``BENCH_service.json`` next to the repo root.  ``--smoke`` runs
a reduced schedule (~50 clients over 10 simulated seconds) and exits
nonzero on any 5xx, any leaked driver, any ``repro-shm-*`` segment left
under ``/dev/shm``, or a tick p99 past the regression budget -- cheap
enough for CI.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service.loadgen import main as loadgen_main  # noqa: E402

# Smoke budget: one session tick on the tiny service rig runs ~5-10 ms
# on a cold container today; 120 ms catches an order-of-magnitude
# regression without flaking on slow CI runners.
SMOKE_P99_MS_BUDGET = 120.0

_SMOKE_ARGS = [
    "--clients", "50",
    "--receivers-per-session", "8",
    "--duration", "10",
    "--seed", "0",
    "--kill-storms", "1",
    "--max-p99-ms", str(SMOKE_P99_MS_BUDGET),
]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--smoke" in argv:
        argv.remove("--smoke")
        argv = _SMOKE_ARGS + argv
    return loadgen_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
