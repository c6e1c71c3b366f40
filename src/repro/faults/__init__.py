"""Deterministic fault injection for LiVo replay sessions.

The paper's evaluation replays smooth bandwidth traces; production
sessions face camera dropouts, link outages, bursty loss, encoder
crashes, and corrupted bitstreams.  This package models that fault
taxonomy as data (:class:`FaultPlan`), executes it deterministically
(:class:`FaultInjector`), and provides the graceful-degradation
machinery the hardened session uses to survive it
(:class:`ResilienceConfig`, :class:`StallWatchdog`).

Everything is seeded: an identical plan produces byte-identical
session reports across runs, so chaos experiments are replayable.
"""
