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

- :mod:`repro.sfu.receivers` -- the per-receiver state book the node
  keeps;
- :mod:`repro.sfu.node` -- :class:`SFUNode`: ingest / forward, stage
  factories for the runtime, ``sfu.*`` metrics and per-receiver spans;
- :mod:`repro.sfu.conference` -- :class:`ConferenceDriver`, the one
  multi-party frame loop (uplink encode -> node, ``join``/``leave``/
  ``tick``), and :class:`UnicastBaseline`, the per-receiver-pipeline
  control behind the same surface.  This is the entry point: the CLI's
  ``multiway`` command, the scenario runner, the service and the fleet
  all drive it;
- :mod:`repro.sfu.fleet` -- the fleet capacity harness: hundreds of
  concurrent conferences, churned by the fleet's seeded schedule,
  through shared kernel caches (the ``fleet`` workload of
  ``benchmarks/e2e`` drives it).
"""

from repro.sfu.fleet import FleetConfig, FleetResult, run_fleet
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
