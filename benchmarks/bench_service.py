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
under ``/dev/shm``, a tick p99 past the regression budget, or a shared
capture-memo hit rate below its floor -- cheap enough for CI.

The smoke schedule measures a capture hit rate of 0.75 (8 session ticks,
2 renders) in ten of ten runs on an idle 2-core x86 host, and 0.73 with
a test suite running beside it: sessions at the same frame number share
one render.  The floor is half of that, so it trips when sessions stop
sharing frames, not on timing noise.
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

# Smoke floor on the end-of-run ``cache.capture_frames`` hit rate.
SMOKE_CAPTURE_HIT_RATE_FLOOR = 0.375

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
    if "--smoke" not in argv:
        return loadgen_main(argv)
    argv.remove("--smoke")
    return loadgen_main(
        _SMOKE_ARGS + argv, min_capture_hit_rate=SMOKE_CAPTURE_HIT_RATE_FLOOR
    )


if __name__ == "__main__":
    raise SystemExit(main())
