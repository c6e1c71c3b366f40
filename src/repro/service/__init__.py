"""Session service: async control plane over the SFU conference driver.

The ROADMAP's "production-scale" north star as a running process:
``repro serve`` hosts conferencing sessions behind a REST-ish JSON API,
ticks them on a worker pool (co-scheduled through the cross-session
batch plane), and exposes metrics + audit -- the one conference host,
which the fleet (:mod:`repro.sfu.fleet`) drives without HTTP.
``build_schedule`` draws the seeded churn the benchmark fires at it.

Lazy exports keep ``import repro.service`` cheap; the numpy-heavy media
stack only loads when a session factory is built.
"""

from __future__ import annotations

_EXPORTS = {
    "SessionRegistry": "repro.service.registry",
    "SessionRecord": "repro.service.registry",
    "LifecycleError": "repro.service.registry",
    "SessionNotFound": "repro.service.registry",
    "TickWorkerPool": "repro.service.workers",
    "HttpServer": "repro.service.http",
    "JsonClient": "repro.service.http",
    "HttpError": "repro.service.http",
    "ServiceConfig": "repro.service.app",
    "ServiceApp": "repro.service.app",
    "ServiceHandle": "repro.service.app",
    "SessionFactory": "repro.service.app",
    "LoadgenConfig": "repro.service.loadgen",
    "build_schedule": "repro.service.loadgen",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.service' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
