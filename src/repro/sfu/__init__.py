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
  control behind the same surface;
- :mod:`repro.sfu.room` -- :class:`~repro.sfu.room.Room`, the entry
  point: every multi-party caller builds its conferences from a room;
- :mod:`repro.sfu.fleet` -- the fleet capacity harness: hundreds of
  conferences on the service's registry and tick pool (the ``fleet``
  workload of ``benchmarks/e2e`` drives it).
"""
