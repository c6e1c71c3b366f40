"""Transport substrate: WebRTC-like real-time transport over emulated links.

The paper streams over WebRTC with Google Congestion Control and
emulates bandwidth with Mahimahi.  This package provides the same
machinery as a discrete-time simulation:

- :mod:`repro.transport.traces` -- the two bandwidth traces (Table 4)
  as stochastic generators matched to the paper's statistics;
- :mod:`repro.transport.link` -- a trace-driven bottleneck link with a
  drop-tail queue, propagation delay, and random loss (Mahimahi's role);
- :mod:`repro.transport.gcc` -- a delay-gradient + loss congestion
  controller in the structure of GCC;
- :mod:`repro.transport.rtp` -- MTU packetization of a frame's
  serialized bytes and their reassembly at the receiver;
- :mod:`repro.transport.fec` -- XOR-parity FEC with length recovery,
  which rebuilds a lost slice byte for byte;
- :mod:`repro.transport.channel` -- the WebRTC-like channel tying those
  together: frames cross as bytes, with NACK/PLI-style recovery and an
  RTT estimator;
- :mod:`repro.transport.tcp` -- a reliable in-order byte stream (fluid
  model) used by the MeshReduce baseline;
- :mod:`repro.transport.downlink` -- per-receiver downlink registry for
  SFU fan-out (one emulated link per receiver).
"""
