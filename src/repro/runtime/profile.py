"""Stage-timing aggregation and formatting for ``--profile`` output."""

from __future__ import annotations

from repro.runtime.stage import StageTiming

__all__ = ["format_stage_profile", "format_cache_stats"]


def format_stage_profile(
    timings: dict[str, StageTiming], fps: float | None = None
) -> str:
    """Render a per-stage service-time table.

    With ``fps`` given, each row is checked against the paper's design
    rule -- "each stage incurs a delay per frame of less than one
    inter-frame interval" -- and flagged when it would bound throughput
    below the capture rate.
    """
    header = f"{'stage':<16s} {'n':>5s} {'mean ms':>9s} {'p50 ms':>9s} {'p95 ms':>9s} {'max ms':>9s} {'total s':>9s}"
    if fps is not None:
        header += "  sustains"
    lines = [header, "-" * len(header)]
    interval_s = (1.0 / fps) if fps else None
    for name, timing in timings.items():
        row = (
            f"{name:<16s} {timing.count:>5d} {timing.mean_s * 1e3:>9.2f} "
            f"{timing.p50_s * 1e3:>9.2f} {timing.p95_s * 1e3:>9.2f} "
            f"{timing.max_s * 1e3:>9.2f} {timing.total_s:>9.3f}"
        )
        if interval_s is not None:
            ok = timing.mean_s <= interval_s
            row += f"  {'yes' if ok else 'NO':>8s}"
        lines.append(row)
    total = sum(t.total_s for t in timings.values())
    lines.append("-" * len(header))
    lines.append(f"{'sum':<16s} {'':>5s} {'':>9s} {'':>9s} {'':>9s} {'':>9s} {total:>9.3f}")
    return "\n".join(lines)


def format_cache_stats(stats: dict[str, dict]) -> str:
    """Render the kernel-cache hit/miss counter table.

    ``stats`` maps cache name to a ``{hits, misses, hit_rate}`` dict
    (see :meth:`repro.perf.counters.CacheCounters.to_dict`).
    """
    header = f"{'cache':<22s} {'hits':>8s} {'misses':>8s} {'hit rate':>9s}"
    lines = [header, "-" * len(header)]
    for name, entry in stats.items():
        lines.append(
            f"{name:<22s} {entry['hits']:>8d} {entry['misses']:>8d} "
            f"{entry['hit_rate'] * 100.0:>8.1f}%"
        )
    return "\n".join(lines)
