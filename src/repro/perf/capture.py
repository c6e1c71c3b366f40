"""Incremental multi-view capture: the kernel-cached frame source.

Full capture re-samples every primitive and re-projects every point
through every camera each tick, yet most of a conference scene -- the
room shell, furniture, idle props -- never moves.  The cached source
splits capture along that line: the scene hands out per-primitive
:class:`~repro.capture.scene.SampleBatch` objects tagged static or
dynamic, and a per-camera
:class:`~repro.capture.renderer.ProjectionCache` projects each static
batch once per scene epoch, re-projecting only the dynamic batches
every frame, in one call per camera.  The dynamic per-pixel winners
are merged into the cached static z-buffer under the comparator a full
render's z-buffer applies, so frames are byte-identical to
:func:`~repro.capture.renderer.render_views` over the concatenated
batches (asserted by ``TestIncrementalCapture`` under tests/).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.capture.renderer import ProjectionCache, fill_holes_batch
from repro.capture.rgbd import MultiViewFrame, RGBDFrame
from repro.capture.rig import CaptureRig
from repro.capture.scene import Scene
from repro.perf.counters import CacheCounters

__all__ = ["CachedFrameSource"]


class CachedFrameSource:
    """Multi-view frame source with per-camera static-splat caching.

    Drop-in for the ``rig.capture(scene, sequence)`` call sites: same
    cameras, same clock, same output type.
    """

    def __init__(self, rig: CaptureRig, scene: Scene) -> None:
        self.rig = rig
        self.scene = scene
        self._caches = [ProjectionCache(camera) for camera in rig.cameras]

    def capture(self, sequence: int) -> MultiViewFrame:
        """One synchronized multi-view capture at this sequence number."""
        timestamp = sequence * self.rig.frame_interval_s
        batches = self.scene.sample_batches(timestamp)
        views = self._render_chunk(
            list(range(self.rig.num_cameras)), batches, sequence, timestamp
        )
        return MultiViewFrame(views, sequence=sequence, timestamp_s=timestamp)

    def capture_views(self, camera_indices: list[int], sequence: int) -> list[RGBDFrame]:
        """Render a subset of cameras for one tick (executor fan-out unit).

        Batch sampling is deterministic in ``(seed, epoch, t)``, so
        workers rendering disjoint camera chunks of the same tick all
        see identical surface points.
        """
        timestamp = sequence * self.rig.frame_interval_s
        batches = self.scene.sample_batches(timestamp)
        return self._render_chunk(list(camera_indices), batches, sequence, timestamp)

    def _render_chunk(
        self, camera_indices: list[int], batches, sequence: int, timestamp: float
    ) -> list[RGBDFrame]:
        """Render a set of cameras, hole-filling the whole set in one pass.

        The per-camera z-buffers are produced unfilled
        (:meth:`ProjectionCache.render_arrays`) and the hole filling
        runs once over the stacked ``(N, H, W)`` images
        (:func:`fill_holes_batch`) -- bit-identical to filling each
        camera separately, grouped by image shape so mixed-resolution
        rigs still batch what they can.
        """
        frames: list[RGBDFrame | None] = [None] * len(camera_indices)
        pending: dict[tuple, list[tuple[int, np.ndarray, np.ndarray]]] = defaultdict(list)
        for slot, index in enumerate(camera_indices):
            depth, color, needs_fill = self._caches[index].render_arrays(batches)
            if needs_fill:
                pending[depth.shape].append((slot, depth, color))
            else:
                frames[slot] = RGBDFrame(
                    color,
                    depth,
                    camera_id=self._caches[index].camera.camera_id,
                    sequence=sequence,
                    timestamp_s=timestamp,
                )
        for members in pending.values():
            depths, colors = fill_holes_batch(
                np.stack([depth for _, depth, _ in members]),
                np.stack([color for _, _, color in members]),
            )
            for row, (slot, _, _) in enumerate(members):
                index = camera_indices[slot]
                frames[slot] = RGBDFrame(
                    colors[row],
                    depths[row],
                    camera_id=self._caches[index].camera.camera_id,
                    sequence=sequence,
                    timestamp_s=timestamp,
                )
        return frames

    def counters(self) -> CacheCounters:
        """All per-camera projection counters merged into one line."""
        merged = CacheCounters("capture_projection")
        for cache in self._caches:
            merged.merge(cache.counters)
        return merged
