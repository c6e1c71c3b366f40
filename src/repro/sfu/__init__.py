"""Selective Forwarding Unit: one uplink encode, N tailored downlinks.

The paper leaves multi-way conferencing as future work ("optimizations
across receivers from a single sender", section 3.1).  This package is
that optimization, in the architecture SLAMCast's multi-client
telepresence system uses: the sender uploads *one* union-culled encoded
stream to a forwarding node; the node seats every receiver (frustum
predictor, bandwidth estimate, degradation rung, pose feed) and, per
frame, reads each receiver's share of the union out of the visibility
table the union cull hands it and picks its tier before forwarding a
right-sized burst down the receiver's own emulated link.  The node never re-encodes, so the
depth/color split stays the sender's.

- :mod:`repro.sfu.node` -- :class:`SFUNode`: the receiver seats,
  frustum prediction, forward and the ``sfu.*`` metrics;
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
