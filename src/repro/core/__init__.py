"""LiVo core: the paper's primary contribution.

The sender-to-receiver pipeline of Fig. 2 -- culling, tiling, depth
encoding, adaptive bandwidth splitting, WebRTC-like transmission,
receiver reconstruction -- plus the replay-based session driver used
throughout the evaluation and the scheme variants it compares
(LiVo, LiVo-NoCull, LiVo-NoAdapt, Draco-Oracle, MeshReduce).

Lazy exports keep an SFU or service process, which only runs the
media plane, from loading ``repro.core.session`` and its PointSSIM stack.
"""

from __future__ import annotations

_EXPORTS = {
    "SplitController": "repro.core.bandwidth_split",
    "SessionConfig": "repro.core.config",
    "LiVoReceiver": "repro.core.receiver",
    "SCHEMES": "repro.core.schemes",
    "SchemeSpec": "repro.core.schemes",
    "LiVoSender": "repro.core.sender",
    "SenderResult": "repro.core.sender",
    "DracoOracleSession": "repro.core.baselines",
    "LiVoSession": "repro.core.session",
    "MeshReduceSession": "repro.core.baselines",
    "run_scheme": "repro.core.session",
    "ground_truth_cloud": "repro.core.session",
    "FrameRecord": "repro.core.stats",
    "SessionReport": "repro.core.stats",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
