"""Selective Forwarding Unit: one uplink encode, N tailored downlinks.

The paper leaves multi-way conferencing as future work ("optimizations
across receivers from a single sender", section 3.1).  This package is
that optimization done properly, in the architecture SLAMCast's
multi-client telepresence system uses: the sender uploads *one*
union-culled encoded stream to a forwarding node; the node holds all
per-receiver state (frustum predictor, bandwidth estimate, degradation
rung, depth/color split) and performs per-receiver culling and tier
selection **once**, against cached union geometry, before forwarding a
right-sized stream down each receiver's own emulated link.

- :mod:`repro.sfu.receivers` -- the per-receiver state book shared by
  the node and the ``MultiwaySender`` compatibility shim;
- :mod:`repro.sfu.node` -- :class:`SFUNode`: ingest / forward, stage
  factories for the runtime, ``sfu.*`` metrics and per-receiver spans;
- :mod:`repro.sfu.fleet` -- the fleet capacity harness: hundreds of
  concurrent churned conferences through shared kernel caches
  (the ``fleet`` workload of ``benchmarks/e2e`` drives it).

``repro.core.multiway.MultiwaySender`` remains the user-facing entry
point: its ``shared``/``unicast`` modes are byte-identical to the
pre-SFU implementation, and ``mode="sfu"`` routes through this package.
"""

from repro.sfu.node import ForwardDecision, SFUNode, TIER_SCALES
from repro.sfu.receivers import ReceiverBook, ReceiverState

__all__ = [
    "SFUNode",
    "ForwardDecision",
    "TIER_SCALES",
    "ReceiverBook",
    "ReceiverState",
    "FleetConfig",
    "FleetResult",
    "run_fleet",
]

# The fleet harness drives repro.core.multiway, which itself imports
# this package's receiver book -- loading it eagerly here would close
# an import cycle.  PEP 562 keeps it lazy.
_LAZY = {
    "FleetConfig": ("repro.sfu.fleet", "FleetConfig"),
    "FleetResult": ("repro.sfu.fleet", "FleetResult"),
    "run_fleet": ("repro.sfu.fleet", "run_fleet"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
