"""Cross-session batch plane: lockstep SoA kernel execution (DESIGN.md §9).

One fleet host ticks hundreds of conferences whose per-frame kernel
work is *homogeneous*: every session runs the same blockwise DCT /
quantize / motion-search calls on arrays of the same shape, differing
only in content.  Issued per session, each call is too small to
amortize numpy's dispatch overhead; stacked across sessions, the same
work is a handful of large vectorized calls.

The batch plane realizes that stacking without forking the codec:

- codec stages are written as **request-yielding generators**
  (:meth:`repro.codec.video.VideoEncoder.encode_steps`).  A generator
  yields a list of :class:`BatchRequest` descriptors and receives the
  list of results; all stream state (references, rate control, frame
  headers) stays in the generator.
- the **serial driver** (:func:`drive_serial`) resolves each request
  immediately through the kernel's ``single`` path -- this *is* the
  per-session schedule, and it is what :meth:`VideoEncoder.encode`
  runs, so there is exactly one codec implementation.
- the **lockstep driver** (:meth:`BatchPlane.run_lockstep`) advances
  many generators one round at a time, buckets the outstanding
  requests by ``(kind, key)``, executes each bucket through the
  kernel's ``batched`` structure-of-arrays path (or ``single`` for a
  bucket of one), and scatters results back in request order.  It
  takes the generators in cohorts of at most :data:`LOCKSTEP_COHORT`,
  one cohort to completion after another, so a drive's transient
  memory is bounded by the cohort, not by the number of generators.

Determinism rules (tested in tests/test_batchplane.py):

1. a kernel's ``batched`` output is **byte-identical** per item to its
   ``single`` output -- stacking may only add a leading axis to
   elementwise/blockwise math (DCT over trailing axes, elementwise
   quantization, per-block SAD with lowest-index argmin ties);
2. bucket keys carry every parameter that changes the math (shape,
   block size, QP, weight table -- by its small shared-memo name,
   :func:`repro.perf.scratch.table_key`), so heterogeneous jobs are
   never co-batched;
3. sessions are independent -- scatter order equals request order, and
   a kernel is a pure function of its requests (the tables it reads are
   the process-wide memo's, :mod:`repro.perf.scratch`) -- so lockstep
   results equal the serial schedule's regardless of how rounds
   interleave across sessions.

A kernel exception is re-raised *inside* the owning generator (via
``generator.throw``) at the yield point, so existing skip-not-crash
handlers (e.g. the sender's encode-failure recovery) behave as on the
serial path.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.codec.dct import forward_dct, inverse_dct
from repro.codec.entropy import encode_levels, encode_levels_batch
from repro.codec.motion import motion_batch
from repro.codec.quant import dequantize, quantize
from repro.perf import scratch
from repro.perf.counters import BatchCounters

__all__ = [
    "LOCKSTEP_COHORT",
    "BatchRequest",
    "BatchPlane",
    "LockstepOutcome",
    "drive_serial",
    "interleave_steps",
    "plane_transform_request",
    "motion_request",
    "entropy_encode_request",
]


@dataclass
class BatchRequest:
    """One kernel job yielded by a codec generator.

    Attributes:
        kind: kernel name (``plane_transform`` / ``motion`` /
            ``entropy_encode``).
        key: hashable bucket key; two requests may be co-batched iff
            their ``(kind, key)`` are equal.  The key must carry every
            parameter that changes the kernel's math.
        payload: the kernel's positional inputs.
    """

    kind: str
    key: tuple
    payload: tuple


# ----------------------------------------------------------------------
# Request constructors (the generators' vocabulary)
# ----------------------------------------------------------------------


def plane_transform_request(residual, qp, weights, block_size) -> BatchRequest:
    """DCT -> quantize -> dequantize -> inverse DCT on a residual stack.

    Result: ``(levels, recon_delta)``.  The block count may differ
    across a bucket's items (blockwise ops are independent along axis
    0), so it is deliberately absent from the key.
    """
    return BatchRequest(
        kind="plane_transform",
        key=(block_size, int(qp), scratch.table_key(weights)),
        payload=(residual, qp, weights),
    )


def motion_request(plane, reference, search_range, block_size) -> BatchRequest:
    """Motion search + compensation of one plane against its reference.

    Result: ``(mv_index, predictor)``.  Shape is in the key -- stacking
    requires exact (H, W) agreement -- as are the search window and
    block size.
    """
    return BatchRequest(
        kind="motion",
        key=(plane.shape, search_range, block_size),
        payload=(plane, reference),
    )


def entropy_encode_request(levels) -> BatchRequest:
    """Entropy-code one quantized level stack to its payload bytes.

    Result: ``bytes``.  The full stack shape is the key -- the batched
    coder's shared bit-scatter pass stacks exact-shape level arrays.
    """
    return BatchRequest(kind="entropy_encode", key=(levels.shape,), payload=levels)


# ----------------------------------------------------------------------
# Kernels: a scalar path (the per-session reference) + an SoA path
# ----------------------------------------------------------------------


class _PlaneTransformKernel:
    """Blockwise DCT/quant round trip, stackable along the block axis."""

    name = "plane_transform"

    def single(self, request: BatchRequest):
        residual, qp, weights = request.payload
        scale = scratch.quant_scale(qp, weights)
        levels = quantize(forward_dct(residual), qp, weights, scale=scale)
        recon_delta = inverse_dct(dequantize(levels, qp, weights, scale=scale))
        return levels, recon_delta

    def batched(self, requests: list[BatchRequest]):
        _, qp, weights = requests[0].payload
        scale = scratch.quant_scale(qp, weights)
        counts = [request.payload[0].shape[0] for request in requests]
        stacked = np.concatenate([request.payload[0] for request in requests], axis=0)
        levels = quantize(forward_dct(stacked), qp, weights, scale=scale)
        recon_delta = inverse_dct(dequantize(levels, qp, weights, scale=scale))
        splits = np.cumsum(counts[:-1])
        return list(
            zip(np.split(levels, splits), np.split(recon_delta, splits))
        )


class _MotionKernel:
    """Per-block translation search, stackable along a session axis."""

    name = "motion"

    def single(self, request: BatchRequest):
        return self._search([request])[0]

    def batched(self, requests: list[BatchRequest]):
        return self._search(requests)

    def _search(self, requests: list[BatchRequest]):
        _, search_range, block_size = requests[0].key
        offsets = scratch.search_offsets(search_range)
        planes = np.stack([request.payload[0] for request in requests])
        references = np.stack([request.payload[1] for request in requests])
        mv_index, predictor = motion_batch(planes, references, offsets, block_size)
        return [
            (mv_index[index], predictor[index]) for index in range(len(requests))
        ]


class _EntropyEncodeKernel:
    """CAVLC-style level coding, stackable along a session axis.

    The batched path shares the zigzag reorder, significance bitmap,
    magnitude classes and the fixed-width class pack across the bucket
    (byte-aligned per-session segments); the magnitude pack and DEFLATE
    stay per session.
    """

    name = "entropy_encode"

    def single(self, request: BatchRequest):
        return encode_levels(request.payload)

    def batched(self, requests: list[BatchRequest]):
        return encode_levels_batch(np.stack([request.payload for request in requests]))


KERNELS = {
    kernel.name: kernel
    for kernel in (
        _PlaneTransformKernel(),
        _MotionKernel(),
        _EntropyEncodeKernel(),
    )
}


def resolve_single(request: BatchRequest):
    """Resolve one request through its kernel's scalar path."""
    return KERNELS[request.kind].single(request)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


def drive_serial(generator):
    """Run a request-yielding generator on the per-session schedule.

    Every request resolves immediately through the scalar kernel; this
    is the reference schedule the batched plane is pinned against, and
    the one the synchronous encoder entry points use.
    """
    try:
        requests = generator.send(None)
        while True:
            requests = generator.send([resolve_single(r) for r in requests])
    except StopIteration as stop:
        return stop.value


def interleave_steps(generators):
    """Merge several request-yielding generators into one.

    Each round concatenates the live sub-generators' request lists and
    yields them together, so co-resident streams (e.g. one sender's
    color and depth encoders) land in the same bucketing round.  An
    exception thrown into the merged generator propagates to the caller
    with the remaining sub-generators closed, matching the serial
    failure contract (the first failing stream aborts the frame).

    Returns the sub-generators' return values, in input order.
    """
    generators = list(generators)
    results = [None] * len(generators)
    live: dict[int, object] = {}
    pending: dict[int, list] = {}
    for index, generator in enumerate(generators):
        try:
            pending[index] = generator.send(None)
            live[index] = generator
        except StopIteration as stop:
            results[index] = stop.value
    while live:
        merged: list[BatchRequest] = []
        slices = []
        for index, requests in pending.items():
            slices.append((index, len(merged), len(requests)))
            merged.extend(requests)
        replies = yield merged
        pending = {}
        next_live: dict[int, object] = {}
        for index, start, count in slices:
            generator = live[index]
            try:
                pending[index] = generator.send(replies[start : start + count])
                next_live[index] = generator
            except StopIteration as stop:
                results[index] = stop.value
        live = next_live
    return results


@dataclass
class _Failure:
    """A per-item kernel failure awaiting re-raise in its generator."""

    error: Exception


def _single_or_failure(kernel, request: BatchRequest):
    """The request's scalar result, or its exception as a ``_Failure``."""
    try:
        return kernel.single(request)
    except Exception as error:
        return _Failure(error)


@dataclass
class LockstepOutcome:
    """One lockstep drive: per-generator results and attributed time.

    ``values`` and ``elapsed`` are in input order.  ``elapsed`` charges
    each generator its own resume time plus an equal share of every
    bucket it participated in, so the entries sum to the drive's wall
    time and per-session latency percentiles stay meaningful under
    batching.  ``rounds`` is summed over the drive's cohorts.
    """

    values: list
    elapsed: list[float]
    rounds: int


# Generators advanced together by one lockstep drive: buckets, and the
# frame state generators hold between rounds, grow with this and not
# with the fleet (sweep in DESIGN.md section 9, "Gather/scatter
# lifecycle").
LOCKSTEP_COHORT = 32

# What _resume returns for a generator that has finished.
_RETURNED = object()


class BatchPlane:
    """The lockstep scheduler plus its per-kind accounting.

    One instance serves a whole fleet run (or one session): it owns the
    per-kind batched-vs-scalar counters that :meth:`stats` reports.
    """

    def __init__(self) -> None:
        self.kernels = dict(KERNELS)
        self.counters = {name: BatchCounters() for name in self.kernels}
        self.rounds = 0
        self.buckets = 0

    # ------------------------------------------------------------------

    def run(self, generator):
        """Drive one generator, co-batching requests within its rounds."""
        return self.run_lockstep([generator]).values[0]

    def run_lockstep(self, generators) -> LockstepOutcome:
        """Advance generators in rounds, batching across them.

        Generators run in cohorts of at most ``LOCKSTEP_COHORT``, in
        input order; each cohort runs to completion before the next
        starts.  Within a cohort, scatter order equals request order per
        generator; a failed job is re-raised inside its owning
        generator, and generators finishing early drop out of later
        rounds.
        """
        generators = list(generators)
        count = len(generators)
        values = [None] * count
        elapsed = [0.0] * count
        rounds = 0
        for first in range(0, count, LOCKSTEP_COHORT):
            cohort = {
                index: generators[index]
                for index in range(first, min(first + LOCKSTEP_COHORT, count))
            }
            rounds += self._run_cohort(cohort, values, elapsed)
        self.rounds += rounds
        return LockstepOutcome(values=values, elapsed=elapsed, rounds=rounds)

    def _run_cohort(self, cohort: dict, values, elapsed) -> int:
        """Drive one cohort's generators to completion; return its rounds."""
        pending: dict[int, list] = {}
        for index, generator in cohort.items():
            requests = self._resume(generator, None, index, values, elapsed)
            if requests is not _RETURNED:
                pending[index] = requests
        rounds = 0
        while pending:
            rounds += 1
            replies = self._execute_round(pending, elapsed)
            pending = {}
            for index, outs in replies.items():
                requests = self._resume(cohort[index], outs, index, values, elapsed)
                if requests is not _RETURNED:
                    pending[index] = requests
        return rounds

    def _execute_round(self, pending: dict, elapsed) -> dict:
        """Bucket one round's requests, run every bucket, return the replies."""
        replies = {index: [None] * len(reqs) for index, reqs in pending.items()}
        buckets: dict[tuple, list] = {}
        for index, requests in pending.items():
            for slot, request in enumerate(requests):
                buckets.setdefault((request.kind, request.key), []).append(
                    (index, slot, request)
                )
        for (kind, _), entries in buckets.items():
            self._execute_bucket(kind, entries, replies, elapsed)
        return replies

    @staticmethod
    def _resume(generator, outs, index, values, elapsed):
        """Send ``outs`` (or throw its failure) into one generator.

        Returns the generator's next requests, or ``_RETURNED`` after
        storing its return value in ``values``.
        """
        failure = next((out for out in outs or () if isinstance(out, _Failure)), None)
        start = perf_counter()
        try:
            if failure is not None:
                return generator.throw(failure.error)
            return generator.send(outs)
        except StopIteration as stop:
            values[index] = stop.value
            return _RETURNED
        finally:
            elapsed[index] += perf_counter() - start

    def _execute_bucket(self, kind, entries, replies, elapsed) -> None:
        """Run one bucket and scatter its results (or failures) back."""
        kernel = self.kernels[kind]
        counters = self.counters[kind]
        self.buckets += 1
        start = perf_counter()
        requests = [request for _, _, request in entries]
        if len(requests) == 1:
            outs = [_single_or_failure(kernel, requests[0])]
            counters.scalar(1)
        else:
            try:
                outs = kernel.batched(requests)
            except Exception:
                # One odd job must not poison the bucket: retry each
                # item on the scalar path and pin failures to owners.
                outs = [_single_or_failure(kernel, request) for request in requests]
                counters.scalar(len(requests))
            else:
                counters.batch(len(requests))
        for (index, slot, _), out in zip(entries, outs):
            replies[index][slot] = out
        share = (perf_counter() - start) / len(entries)
        for index, _, _ in entries:
            elapsed[index] += share

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Per-kind batched-vs-scalar tallies plus round/bucket counts."""
        payload = {
            name: counters.to_dict() for name, counters in self.counters.items()
        }
        payload["rounds"] = self.rounds
        payload["executed_buckets"] = self.buckets
        return payload
