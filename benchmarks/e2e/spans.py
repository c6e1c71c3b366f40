"""Outside-in span tracer for the end-to-end benchmark.

The program under test is not edited.  The tracer swaps the public
callables named in :data:`SPAN_TABLE` for timing wrappers -- a class
attribute for methods, the consumer module's name for imported
functions -- and restores every one of them on exit.  Each wrapper
records one span ``(layer, start, end, id, parent, op, thread, call)``
in memory; nothing is written until the run is over.

- *parent* is the span that was open on the same thread when this one
  started, so spans of one thread nest strictly and a layer's **self
  time** is its spans' duration minus the duration of their direct
  children.  Summed over a tree, self times equal the root's duration.
- *op* identifies the enclosing frame / session tick / request: the
  outermost open span of a layer marked ``op`` in the table hands its
  id to everything beneath it.
- A callable that returns a generator (the batch plane's
  request-yielding encoders and ticks) is timed **per resumption**:
  the call itself is one span (``call=True``, the one that counts as
  a call), every ``send``/``throw`` into the generator another, each
  parented under whatever resumed it.
- A ``leaf`` layer mutes the wrappers beneath it, so work the workload
  does on the side (the fleet's unicast control group) is charged to
  that one layer instead of polluting the layers it reuses.
- A target that no longer resolves -- a later change renamed or
  deleted it, and may not edit this directory -- is skipped and listed
  in ``unresolved``; its time then falls into its parent's self time.
  Nothing else in the benchmark depends on a table entry.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from types import GeneratorType, ModuleType
from typing import NamedTuple

__all__ = [
    "LAYERS", "SPAN_TABLE", "Span", "SpanTracer", "Target", "aggregate", "span_cost_s",
]


class Target(NamedTuple):
    """One wrapped callable: ``module:attr.path`` charged to ``layer``."""

    layer: str
    spec: str
    op: bool = False
    leaf: bool = False


class Span(NamedTuple):
    layer: str
    start: float
    end: float
    id: int
    parent: int   # -1 for a thread's root span
    op: int       # -1 outside any frame / tick / request
    thread: int
    call: bool    # False for the 2nd+ resumption of a generator


# Layer names follow the program's module names.  Several targets may
# share a layer (twins of one entry point); nested spans of one layer
# are handled by the self-time rule like any other nesting.
SPAN_TABLE: tuple[Target, ...] = (
    # Two-party session (call, call_eval).
    Target("core.session", "repro.core.session:LiVoSession.run"),
    Target("runtime.stage", "repro.runtime.stage:StageGraph.run_item", op=True),
    Target("capture", "repro.perf.capture:CachedFrameSource.capture"),
    Target("capture", "repro.capture.rig:CaptureRig.capture"),
    Target("core.sender.prepare", "repro.core.sender:LiVoSender.prepare"),
    Target("core.sender.encode", "repro.core.sender:LiVoSender.encode_steps"),
    Target("core.sender.encode", "repro.core.sender:LiVoSender.encode"),
    Target("runtime.batchplane", "repro.runtime.batchplane:BatchPlane.run"),
    Target("runtime.batchplane", "repro.runtime.batchplane:BatchPlane.run_lockstep"),
    Target("codec.transform", "repro.runtime.batchplane:KERNELS[plane_transform].single"),
    Target("codec.transform", "repro.runtime.batchplane:KERNELS[plane_transform].batched"),
    Target("codec.motion", "repro.runtime.batchplane:KERNELS[motion].single"),
    Target("codec.motion", "repro.runtime.batchplane:KERNELS[motion].batched"),
    Target("codec.entropy", "repro.runtime.batchplane:KERNELS[entropy_encode].single"),
    Target("codec.entropy", "repro.runtime.batchplane:KERNELS[entropy_encode].batched"),
    Target("core.receiver.decode", "repro.core.receiver:LiVoReceiver.decode_pair"),
    Target("codec.decode", "repro.codec.video:VideoDecoder.decode"),
    Target("codec.entropy_decode", "repro.codec.video:decode_levels"),
    Target("core.receiver.reconstruct", "repro.core.receiver:LiVoReceiver.reconstruct"),
    Target("core.receiver.render", "repro.core.receiver:LiVoReceiver.render_view"),
    Target("core.session.truth", "repro.core.session:ground_truth_cloud"),
    Target("metrics.pointssim", "repro.core.session:pointssim"),
    Target("metrics.pointssim", "repro.core.session:pointssim_batch"),
    Target("transport.channel", "repro.transport.channel:WebRTCChannel.send_frame"),
    Target("transport.channel", "repro.transport.channel:WebRTCChannel.poll_deliveries"),
    Target("transport.channel", "repro.transport.channel:WebRTCChannel.process_until"),
    Target("transport.channel", "repro.transport.channel:WebRTCChannel.release_frame"),
    # SFU fleet (fleet, and the media plane of service_churn).
    Target("sfu.fleet", "repro.sfu.fleet:run_fleet"),
    Target("sfu.fleet.unicast_control", "repro.sfu.fleet:_run_unicast_control", leaf=True),
    Target("sfu.conference.tick", "repro.sfu.conference:ConferenceDriver.tick_steps", op=True),
    Target("sfu.conference.tick", "repro.sfu.conference:ConferenceDriver.tick", op=True),
    Target("core.multiway.cull_union", "repro.core.multiway:cull_views_union"),
    Target("sfu.node.predict", "repro.sfu.node:SFUNode.predicted_frustums"),
    Target("sfu.node.predict", "repro.sfu.node:SFUNode.observe_pose"),
    Target("sfu.node.forward", "repro.sfu.node:SFUNode.forward"),
    Target("transport.downlink", "repro.transport.downlink:DownlinkSet.send"),
    # Session service (service_churn).
    Target("service.app.handle", "repro.service.app:ServiceApp.handle", op=True),
    Target("service.registry", "repro.service.registry:SessionRegistry.create"),
    Target("service.registry", "repro.service.registry:SessionRegistry.join"),
    Target("service.registry", "repro.service.registry:SessionRegistry.leave"),
    Target("service.registry", "repro.service.registry:SessionRegistry.kill"),
    Target("service.registry", "repro.service.registry:SessionRegistry.stats"),
    Target("service.factory", "repro.service.app:SessionFactory.__call__"),
    Target("service.workers.round", "repro.service.workers:TickWorkerPool.run_round"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in SPAN_TABLE))


def _resolve(spec: str):
    """``module:a.b[key].c`` -> (owner object, attribute name)."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        attr, bracket, key = part.partition("[")
        owner = getattr(owner, attr)
        if bracket:
            owner = owner[key.rstrip("]")]
    inspect.getattr_static(owner, name)  # AttributeError if it is gone
    return owner, name


class SpanTracer:
    """Records spans around the callables it patches; see the module doc."""

    def __init__(self, clock=perf_counter) -> None:
        self.spans: list[Span] = []
        self.unresolved: list[str] = []
        self._clock = clock
        self._local = threading.local()
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._undo: list = []

    # -- patching -------------------------------------------------------

    def patch(self, table=SPAN_TABLE) -> "SpanTracer":
        """Swap in a wrapper for every target of ``table`` that resolves."""
        for target in table:
            self._swap(
                target.spec,
                lambda fn, t=target: self.wrap(t.layer, fn, t.op, t.leaf),
            )
        return self

    def count(self, spec: str) -> list[int]:
        """Count calls of one callable without timing it: ``[calls]``.

        For work already charged to an enclosing span (the encoder
        generators inside the sender's encode span) where only the
        number of attempts is wanted.
        """
        cell = [0]

        def counting(fn):
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        self._swap(spec, counting)
        return cell

    def _swap(self, spec: str, decorate) -> None:
        """Replace ``spec`` by ``decorate(original)``, or note it as unresolved."""
        try:
            owner, name = _resolve(spec)
        except (ImportError, AttributeError, KeyError, TypeError):
            self.unresolved.append(spec)
            return
        static = inspect.getattr_static(owner, name)
        if isinstance(static, (staticmethod, classmethod)):
            replacement = type(static)(decorate(static.__func__))
        elif isinstance(owner, (type, ModuleType)):
            replacement = decorate(static)
        else:
            # An instance (a batch-plane kernel object): shadow the
            # class's method with a wrapper around the bound method.
            replacement = decorate(getattr(owner, name))
        self._undo.append((owner, name, static if name in vars(owner) else None))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Put every patched name back exactly as it was."""
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "SpanTracer":   # ``with SpanTracer().patch(...) as tracer``
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def wrap(self, layer: str, fn, op: bool = False, leaf: bool = False):
        """A callable that times ``fn`` as one span of ``layer``."""
        clock, ids, spans = self._clock, self._ids, self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent, op_id, muted = stack[-1]
                if muted:
                    return fn(*args, **kwargs)
            else:
                parent, op_id = -1, -1
            if op and op_id < 0:
                op_id = next(self._ops)
            span_id = next(ids)
            stack.append((span_id, op_id, leaf))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(layer, start, end, span_id, parent, op_id, threading.get_ident(), True)
                )
            if type(result) is GeneratorType:
                return self._resume(layer, result, op_id, leaf)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _resume(self, layer: str, generator, op_id: int, leaf: bool):
        """Delegate to ``generator``, one span per resumption."""
        clock, ids, spans = self._clock, self._ids, self.spans
        value = error = None
        try:
            while True:
                stack = self._stack()
                parent, outer_op = (stack[-1][0], stack[-1][1]) if stack else (-1, -1)
                span_op = op_id if op_id >= 0 else outer_op
                span_id = next(ids)
                stack.append((span_id, span_op, leaf))
                start = clock()
                try:
                    if error is not None:
                        out = generator.throw(error)
                    else:
                        out = generator.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end = clock()
                    stack.pop()
                    spans.append(
                        Span(layer, start, end, span_id, parent, span_op,
                             threading.get_ident(), False)
                    )
                try:
                    value, error = (yield out), None
                except GeneratorExit:
                    raise
                except BaseException as thrown:  # forwarded into the generator
                    value, error = None, thrown
        finally:
            generator.close()

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """Dump the raw spans, one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def aggregate(spans) -> dict[str, dict]:
    """Per-layer totals: ``self_s``, ``total_s``, ``calls``, ``spans``.

    ``total_s`` is inclusive and double-counts a layer nested in
    itself; ``self_s`` never does, and sums to the roots' durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    layers: dict[str, dict] = {}
    for span in spans:
        entry = layers.setdefault(
            span.layer, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "spans": 0}
        )
        duration = span.end - span.start
        entry["self_s"] += duration - covered.get(span.id, 0.0)
        entry["total_s"] += duration
        entry["calls"] += span.call
        entry["spans"] += 1
    return layers


def span_cost_s(samples: int = 20000) -> float:
    """What recording one span costs here, by timing a wrapped no-op.

    ``spans x cost / wall`` is the tracer's own share of a traced run
    -- a count times a unit cost, steadier than the difference of two
    runs' wall clocks on a host that drifts by several percent.
    """
    def nothing():
        return None

    wrapped = SpanTracer().wrap("calibration", nothing)
    start = perf_counter()
    for _ in range(samples):
        wrapped()
    traced = perf_counter() - start
    start = perf_counter()
    for _ in range(samples):
        nothing()
    return max(0.0, traced - (perf_counter() - start)) / samples
