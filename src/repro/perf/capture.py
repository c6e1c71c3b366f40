"""Incremental multi-view capture: the kernel-cached frame source.

Full capture re-samples every primitive and re-projects every point
through every camera each tick, yet most of a conference scene -- the
room shell, furniture, idle props -- never moves.  The cached source
splits capture along that line: the scene hands out per-primitive
:class:`~repro.capture.scene.SampleBatch` objects tagged static or
dynamic, and a per-camera
:class:`~repro.capture.renderer.ProjectionCache` resolves the static
batches to one static z-buffer image on the first frame, re-projecting
only the dynamic batches every frame, in one call per camera
(:func:`~repro.capture.renderer.render_frame`).  The caches live as
long as the source, so a frame is byte-identical to a one-off
``rig.capture(scene, sequence)``, which renders the same way with
fresh caches (both asserted against the full z-buffer oracle by
``TestIncrementalCapture`` under tests/).

A scene is fixed for its run, so a finished capture is a pure function
of its ``sequence`` -- :meth:`Scene.sample_batches` seeds every draw
from the scene's seed and the frame -- and the source also memoizes
whole frames by sequence, in a byte-bounded LRU: every conference the service hosts at frame *k* is
handed the one frame object rendered for the first of them.  Memoized
frames are shared, so their pixel arrays are read-only.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.capture.renderer import ProjectionCache, render_frame
from repro.capture.rgbd import MultiViewFrame
from repro.capture.rig import CaptureRig, default_rig
from repro.capture.scene import Scene
from repro.perf.counters import CacheCounters

__all__ = ["CachedFrameSource", "FRAME_MEMO_BYTES"]

# Pixel bytes the frame memo may hold: 8 of a 10 x 80x60 call's 240 KB
# frames, about 400 of the service's 2 x 32x16 ones.
FRAME_MEMO_BYTES = 2 * 1024 * 1024


def _frame_bytes(frame: MultiViewFrame) -> int:
    return sum(view.color.nbytes + view.depth_mm.nbytes for view in frame.views)


class CachedFrameSource:
    """Multi-view frame source with per-camera static-splat caching.

    Drop-in for the ``rig.capture(scene, sequence)`` call sites: same
    cameras, same clock, same output type.  Finished frames are
    memoized by ``sequence`` up to
    :data:`FRAME_MEMO_BYTES`; ``frame_counters`` tallies the memo's
    hits and misses.
    """

    def __init__(self, rig: CaptureRig, scene: Scene) -> None:
        self.rig = rig
        self.scene = scene
        self._caches = [ProjectionCache(camera) for camera in rig.cameras]
        self._frames: OrderedDict[int, MultiViewFrame] = OrderedDict()
        self._held_bytes = 0
        self.frame_counters = CacheCounters("capture_frames")

    @classmethod
    def for_config(cls, config, scene: Scene) -> "CachedFrameSource":
        """The conference room a ``SessionConfig`` describes: its camera
        ring at the config's resolution, and one cached source
        over ``scene`` that every party in the room reads (``.rig`` is
        the ring)."""
        rig = default_rig(
            num_cameras=config.num_cameras,
            width=config.camera_width,
            height=config.camera_height,
        )
        return cls(rig, scene)

    def capture(self, sequence: int) -> MultiViewFrame:
        """One synchronized multi-view capture at this sequence number.

        A repeat of a memoized ``sequence`` returns the same frame
        object; its ``color`` / ``depth_mm`` arrays are
        read-only (``RGBDFrame.copy()`` gives a writable one).
        """
        frame = self._frames.get(sequence)
        if frame is not None:
            self.frame_counters.hit()
            self._frames.move_to_end(sequence)
            return frame
        self.frame_counters.miss()
        frame = self._render(sequence)
        for view in frame.views:
            view.color.setflags(write=False)
            view.depth_mm.setflags(write=False)
        self._frames[sequence] = frame
        self._held_bytes += _frame_bytes(frame)
        while self._held_bytes > FRAME_MEMO_BYTES:
            _, evicted = self._frames.popitem(last=False)
            self._held_bytes -= _frame_bytes(evicted)
        return frame

    def _render(self, sequence: int) -> MultiViewFrame:
        """Render one capture from the scene through the long-lived caches."""
        timestamp = sequence * self.rig.frame_interval_s
        batches = self.scene.sample_batches(timestamp)
        return render_frame(self._caches, batches, sequence, timestamp)

    def counters(self) -> CacheCounters:
        """All per-camera projection counters merged into one line."""
        merged = CacheCounters("capture_projection")
        for cache in self._caches:
            merged.merge(cache.counters)
        return merged
