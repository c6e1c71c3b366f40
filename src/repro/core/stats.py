"""Session statistics: the numbers every table and figure is built from."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FaultEvent", "FrameRecord", "SessionReport"]

# The rendered-fps series counts frames in windows this long.
FPS_WINDOW_S = 1.0


@dataclass(frozen=True)
class FaultEvent:
    """One structured fault or recovery observation during a session.

    ``category`` is a stable machine-readable tag (``camera_dropout``,
    ``link_outage``, ``burst_loss``, ``encode_failure``,
    ``corrupt_frame``, ``frame_freeze``, ``frame_abandoned``,
    ``zero_byte_frame``, ``degrade_step``, ``recover_step``, with
    ``*_end`` variants for window edges); ``detail`` is human-readable.
    ``recovered`` marks events that represent the system healing rather
    than a new fault.
    """

    time_s: float
    category: str
    detail: str = ""
    sequence: int | None = None
    recovered: bool = False


@dataclass
class FrameRecord:
    """Per-frame outcome of a replayed session."""

    sequence: int
    capture_time_s: float
    rendered: bool
    stalled: bool
    wire_bytes: int = 0
    split: float | None = None
    culled_points: int = 0
    total_points: int = 0
    delivery_time_s: float | None = None
    pssim_geometry: float | None = None
    pssim_color: float | None = None
    # Resilience bookkeeping (all default-off so pre-fault callers and
    # serialized records are unaffected).
    degradation_level: int = 0
    skipped: bool = False    # ladder fps reduction skipped the tick
    frozen: bool = False     # frame-freeze fallback shown instead
    encode_failed: bool = False
    empty: bool = False      # degenerate capture: nothing survived culling


@dataclass
class SessionReport:
    """Aggregated outcome of one (scheme, video, user trace, net trace) run."""

    scheme: str
    video: str
    user_trace: str
    network_trace: str
    fps_target: float
    duration_s: float
    frames: list[FrameRecord] = field(default_factory=list)
    mean_capacity_mbps: float = 0.0
    trace_scale: float = 1.0
    fault_events: list[FaultEvent] = field(default_factory=list)

    # Run-varying attachments -- the replay's trace (wall-clock spans),
    # cache counters, the metrics registry -- ride along as NON-field
    # attributes, invisible to ``dataclasses.asdict``: two replays of
    # the same seed compare equal even though their timings differ.
    _trace = None
    _stage_names = ()
    _cache_stats = None
    _metrics = None

    def asdict(self) -> dict:
        """Deterministic dict of the report's dataclass fields.

        Traces, cache counters and metric registries are non-field
        attachments and therefore excluded -- two replays of the same
        seed compare equal regardless of wall clock, which is exactly
        what the parity tests assert.
        """
        from dataclasses import asdict as _asdict

        return _asdict(self)

    def attach_trace(self, tracer, stage_names) -> None:
        """Attach the replay's closed span tracer
        (:class:`repro.obs.tracer.Tracer`) and the names of the stages
        it declared, in order."""
        self._trace = tracer
        self._stage_names = tuple(stage_names)

    @property
    def trace(self):
        """The replay's closed span tracer (None for a multiway report:
        the multiway runner builds no tracer)."""
        return self._trace

    @property
    def stage_timings(self):
        """Per-stage wall-clock timings read off the trace, one row per
        declared stage in declared order (a stage that served nothing
        has a count-0 row), or None for a report no stage ran for (the
        multiway runner's)."""
        if self._trace is None:
            return None
        from repro.obs.timeline import stage_timings

        return stage_timings(self._trace.spans(), self._stage_names)

    def timing_table(self) -> str:
        """Human-readable per-stage service-time table (``--profile``)."""
        timings = self.stage_timings
        if not timings:
            return "(no stage timings recorded)"
        from repro.analysis.tracetools import format_stage_table

        return format_stage_table(timings.values(), fps=self.fps_target)

    def attach_cache_stats(self, stats: dict) -> None:
        """Attach the kernel-cache layer's per-cache counter summaries."""
        self._cache_stats = dict(stats)

    @property
    def cache_stats(self) -> dict | None:
        """Per-cache ``{hits, misses, hit_rate}`` dicts, or None."""
        return self._cache_stats

    def cache_table(self) -> str:
        """Human-readable kernel-cache hit/miss table (``--profile``)."""
        if not self._cache_stats:
            return "(no kernel-cache counters recorded)"
        header = f"{'cache':<22s} {'hits':>8s} {'misses':>8s} {'hit rate':>9s}"
        lines = [header, "-" * len(header)]
        for name, entry in self._cache_stats.items():
            lines.append(
                f"{name:<22s} {entry['hits']:>8d} {entry['misses']:>8d} "
                f"{entry['hit_rate'] * 100.0:>8.1f}%"
            )
        return "\n".join(lines)

    def attach_metrics(self, registry) -> None:
        """Attach the unified :class:`repro.obs.metrics.MetricsRegistry`."""
        self._metrics = registry

    @property
    def metrics(self):
        """The attached metrics registry, or None when never built."""
        return self._metrics

    def frame_timeline(self) -> dict:
        """Per-frame span timeline summary ({} without a trace)."""
        if self._trace is None:
            return {}
        from repro.obs.timeline import frame_timelines

        return frame_timelines(self._trace.spans())

    def timeline_table(self, limit: int | None = 20) -> str:
        """Human-readable per-frame timeline (``--trace`` companion)."""
        from repro.obs.timeline import format_timeline

        return format_timeline(self.frame_timeline(), limit=limit)

    # ------------------------------------------------------------------
    # Stalls and frame rate
    # ------------------------------------------------------------------

    @property
    def num_frames(self) -> int:
        """Frames offered to the pipeline."""
        return len(self.frames)

    @property
    def stall_rate(self) -> float:
        """Fraction of frames that stalled (paper Fig. 11)."""
        if not self.frames:
            return 0.0
        return sum(1 for f in self.frames if f.stalled) / len(self.frames)

    @property
    def rendered_frames(self) -> int:
        """Frames that made it to the display."""
        return sum(1 for f in self.frames if f.rendered)

    @property
    def mean_fps(self) -> float:
        """Achieved rendering frame rate (paper Fig. 13/14)."""
        if self.duration_s <= 0:
            return 0.0
        return self.rendered_frames / self.duration_s

    def fps_series(self) -> np.ndarray:
        """Per-window rendered-fps series (for fps std-dev reporting)."""
        if not self.frames:
            return np.zeros(0)
        num_windows = max(1, int(np.ceil(self.duration_s / FPS_WINDOW_S)))
        counts = np.zeros(num_windows)
        for frame in self.frames:
            if frame.rendered:
                index = min(int(frame.capture_time_s / FPS_WINDOW_S), num_windows - 1)
                counts[index] += 1
        return counts / FPS_WINDOW_S

    # ------------------------------------------------------------------
    # Throughput and utilization (Table 1)
    # ------------------------------------------------------------------

    @property
    def throughput_mbps(self) -> float:
        """Mean sent rate over the session, in the scaled trace domain."""
        if self.duration_s <= 0:
            return 0.0
        total_bytes = sum(f.wire_bytes for f in self.frames)
        return total_bytes * 8.0 / self.duration_s / 1e6

    @property
    def utilization(self) -> float:
        """Throughput / mean link capacity (Table 1's Util column)."""
        if self.mean_capacity_mbps <= 0:
            return 0.0
        return self.throughput_mbps / self.mean_capacity_mbps

    @property
    def paper_equivalent_throughput_mbps(self) -> float:
        """Throughput mapped back to the paper's full-resolution domain."""
        if self.trace_scale <= 0:
            return self.throughput_mbps
        return self.throughput_mbps / self.trace_scale

    # ------------------------------------------------------------------
    # Quality
    # ------------------------------------------------------------------

    def _quality_values(self, attribute: str, stalls_as_zero: bool) -> np.ndarray:
        values = []
        for frame in self.frames:
            value = getattr(frame, attribute)
            if value is not None:
                values.append(value)
            elif stalls_as_zero and frame.stalled:
                values.append(0.0)
        return np.array(values)

    def pssim_geometry(self, stalls_as_zero: bool = True) -> tuple[float, float]:
        """(mean, std) geometry PSSIM; stalls count as 0 like the paper."""
        values = self._quality_values("pssim_geometry", stalls_as_zero)
        if len(values) == 0:
            return 0.0, 0.0
        return float(values.mean()), float(values.std())

    def pssim_color(self, stalls_as_zero: bool = True) -> tuple[float, float]:
        """(mean, std) color PSSIM."""
        values = self._quality_values("pssim_color", stalls_as_zero)
        if len(values) == 0:
            return 0.0, 0.0
        return float(values.mean()), float(values.std())

    def latency_stats(self) -> tuple[float, float, float]:
        """(mean, p50, p95) network delivery latency in seconds.

        Measured capture-to-last-byte over delivered frames; the
        transmission row of Table 6 adds the jitter-buffer target on
        top of this.
        """
        latencies = np.array(
            [
                frame.delivery_time_s - frame.capture_time_s
                for frame in self.frames
                if frame.delivery_time_s is not None
            ]
        )
        if len(latencies) == 0:
            # No frame was ever delivered.  Zero would read as "instant
            # delivery" -- conflating total loss with a perfect network
            # -- so report NaN: "no measurement", which downstream
            # consumers can distinguish from a real 0 ms latency.
            nan = float("nan")
            return nan, nan, nan
        return (
            float(latencies.mean()),
            float(np.percentile(latencies, 50)),
            float(np.percentile(latencies, 95)),
        )

    # ------------------------------------------------------------------
    # Resilience (chaos suite)
    # ------------------------------------------------------------------

    @property
    def skipped_frames(self) -> int:
        """Ticks the degradation ladder's fps reduction skipped."""
        return sum(1 for f in self.frames if f.skipped)

    @property
    def frozen_frames(self) -> int:
        """Frames shown via the last-good frame-freeze fallback."""
        return sum(1 for f in self.frames if f.frozen)

    @property
    def degraded_renders(self) -> int:
        """Frames rendered while the ladder was below full quality."""
        return sum(1 for f in self.frames if f.rendered and f.degradation_level > 0)

    @property
    def frames_survived_degraded(self) -> int:
        """Frames the resilience machinery salvaged: degraded renders
        plus frame-freezes (content on screen instead of a stall/crash)."""
        return self.degraded_renders + self.frozen_frames

    def fault_counts(self) -> dict[str, int]:
        """Events per category (fault taxonomy histogram)."""
        counts: dict[str, int] = {}
        for event in self.fault_events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return counts

    def degradation_episodes(self) -> list[tuple[float, float | None]]:
        """(start_s, end_s) of each ladder excursion below full quality.

        ``end_s`` is None for an episode still open at session end.
        """
        episodes: list[tuple[float, float | None]] = []
        start: float | None = None
        for frame in self.frames:
            if frame.degradation_level > 0 and start is None:
                start = frame.capture_time_s
            elif frame.degradation_level == 0 and start is not None:
                episodes.append((start, frame.capture_time_s))
                start = None
        if start is not None:
            episodes.append((start, None))
        return episodes

    @property
    def mttr_s(self) -> float:
        """Mean time to recovery: average length of *completed*
        degradation episodes (entered and left the ladder).

        An episode still open at session end is not a recovery: when
        every episode is open, there is no completed recovery to
        average and the result is NaN -- 0.0 here would read as
        "recovered instantly" for a session that never recovered at
        all.  A session that never degraded reports 0.0.
        """
        episodes = self.degradation_episodes()
        durations = [end - start for start, end in episodes if end is not None]
        if durations:
            return float(np.mean(durations))
        return float("nan") if episodes else 0.0

    @property
    def mean_split(self) -> float:
        """Average depth-stream bandwidth fraction over the session."""
        splits = [f.split for f in self.frames if f.split is not None]
        return float(np.mean(splits)) if splits else 0.0

    @property
    def mean_culled_fraction(self) -> float:
        """Average fraction of points surviving the cull."""
        fractions = [
            f.culled_points / f.total_points for f in self.frames if f.total_points > 0
        ]
        return float(np.mean(fractions)) if fractions else 1.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        geometry = self.pssim_geometry()
        color = self.pssim_color()
        return (
            f"{self.scheme} on {self.video}/{self.network_trace}: "
            f"fps={self.mean_fps:.1f} stalls={self.stall_rate * 100:.1f}% "
            f"PSSIM(geom)={geometry[0]:.1f} PSSIM(color)={color[0]:.1f} "
            f"tput={self.throughput_mbps:.2f} Mbps util={self.utilization * 100:.1f}%"
        )
