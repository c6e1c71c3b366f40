"""Pluggable executors for stage work (the scheduler's muscle).

A stage graph describes *what* runs; an executor decides *where*:

- :class:`SerialExecutor` -- everything in-line in the calling thread.
  The deterministic reference: byte-identical replays, zero overhead.
- :class:`ThreadExecutor` -- a thread pool; useful where the work
  releases the GIL or is I/O-shaped.
- :class:`ProcessExecutor` -- a fork-based process pool for the
  CPU-bound fan-out (per-camera rendering, quality scoring) plus
  dedicated :class:`~repro.runtime.workers.StatefulWorker` processes
  for stages with mutable state (the color/depth encoders).

All executors share one contract: ``map`` preserves input order,
``submit`` returns a future-like with ``.result()``, and a dead worker
*degrades* -- the work is transparently re-run in-process and the crash
is counted -- instead of hanging or killing the session.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor

from repro.runtime.shm import ShmArena
from repro.runtime.workers import StatefulWorker, WorkerCrash

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "WorkerCrash",
    "make_executor",
]


class _ImmediateFuture:
    """Future-like wrapper for eagerly computed (or failed) work."""

    def __init__(self, value=None, error: Exception | None = None) -> None:
        self._value = value
        self._error = error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value

    def done(self) -> bool:
        return True


class _LocalStatefulHandle:
    """In-process stand-in for a StatefulWorker (serial/thread modes)."""

    def __init__(self, factory, name: str = "local") -> None:
        self.name = name
        self.obj = factory()
        self.tracer = None

    def pid(self) -> None:  # symmetry with StatefulWorker
        return None

    def alive(self) -> bool:
        return True

    def attach_tracer(self, tracer) -> None:
        """Record ``worker:`` spans in-process (symmetry with workers)."""
        self.tracer = tracer

    def call(self, method: str, *args, _obs_ctx=None, **kwargs):
        if _obs_ctx is not None and self.tracer is not None:
            with self.tracer.span(
                f"worker:{method}",
                category="worker",
                trace_id=_obs_ctx.trace_id,
                parent_id=_obs_ctx.span_id,
            ):
                return getattr(self.obj, method)(*args, **kwargs)
        return getattr(self.obj, method)(*args, **kwargs)

    def call_async(self, method: str, *args, **kwargs) -> _ImmediateFuture:
        try:
            return _ImmediateFuture(self.call(method, *args, **kwargs))
        except Exception as error:
            return _ImmediateFuture(error=error)

    def close(self) -> None:
        pass


class Executor:
    """Shared executor surface; concrete classes pick the substrate."""

    kind = "abstract"

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.crashes = 0
        # Items recomputed in-process after a pool crash (a crash event
        # bumps ``crashes`` once; ``recomputed`` counts the work redone).
        self.recomputed = 0
        # Shared-memory arena for zero-copy payload passing; the process
        # executor always owns one.  Serial/thread executors pass
        # arrays through untouched (``arena is None``), so payload
        # routing degrades to plain arguments and results stay
        # byte-identical across executor kinds.
        self.arena: ShmArena | None = None
        # Segments the arena's close() found still referenced.
        self.shm_leaked = 0

    @property
    def parallel(self) -> bool:
        """Whether this executor actually runs work concurrently."""
        return self.jobs > 1 and self.kind != "serial"

    def map(self, fn, items) -> list:
        raise NotImplementedError

    def submit(self, fn, *args):
        raise NotImplementedError

    def stateful(self, factory, name: str = "stateful"):
        """Host a stateful object; in-process unless the executor forks."""
        return _LocalStatefulHandle(factory, name)

    def close(self) -> None:
        pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """The deterministic reference executor: run everything in-line."""

    kind = "serial"

    def __init__(self) -> None:
        super().__init__(jobs=1)

    def map(self, fn, items) -> list:
        return [fn(item) for item in items]

    def submit(self, fn, *args) -> _ImmediateFuture:
        try:
            return _ImmediateFuture(fn(*args))
        except Exception as error:
            return _ImmediateFuture(error=error)


class ThreadExecutor(Executor):
    """Thread-pool executor (shared memory, no pickling)."""

    kind = "thread"

    def __init__(self, jobs: int) -> None:
        super().__init__(jobs=jobs)
        self._pool = ThreadPoolExecutor(max_workers=jobs)

    def map(self, fn, items) -> list:
        return list(self._pool.map(fn, items))

    def submit(self, fn, *args):
        return self._pool.submit(fn, *args)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class _FallbackFuture:
    """Wraps a pool future; recomputes in-process if the pool broke."""

    def __init__(self, executor: "ProcessExecutor", future, fn, args) -> None:
        self._executor = executor
        self._future = future
        self._fn = fn
        self._args = args

    def result(self):
        try:
            return self._future.result()
        except (BrokenExecutor, OSError):
            self._executor._note_crash()
            return self._fn(*self._args)

    def done(self) -> bool:
        return self._future.done()


class ProcessExecutor(Executor):
    """Fork-based process pool with degrade-don't-hang crash handling.

    Worker processes are forked at construction, inheriting the
    parent's live objects (scene, cameras, config) by memory -- no
    per-task pickling of the heavy context.  If the pool breaks (a
    worker is killed or dies), affected work is re-run in-process, the
    crash is counted, and subsequent work stays in-process: the session
    slows down but never stalls or diverges.
    """

    kind = "process"

    def __init__(self, jobs: int, on_crash=None) -> None:
        super().__init__(jobs=jobs)
        self._ctx = mp.get_context("fork")
        self._pool = ProcessPoolExecutor(max_workers=jobs, mp_context=self._ctx)
        self._broken = False
        self._on_crash = on_crash
        self._workers: list[StatefulWorker] = []
        self.arena = ShmArena()

    def _note_crash(self) -> None:
        self.crashes += 1
        self._broken = True
        if self._on_crash is not None:
            self._on_crash()

    def map(self, fn, items) -> list:
        """Order-preserving parallel map with incremental crash recovery.

        Results are collected per item, so when the pool breaks mid-map
        (a worker killed or dead) only the items whose futures never
        resolved are recomputed in-process -- work that completed before
        the crash is kept, the crash event is counted once, and the
        redone items are tallied in ``recomputed``.
        """
        items = list(items)
        if self._broken:
            return [fn(item) for item in items]
        try:
            futures = [self._pool.submit(fn, item) for item in items]
        except (BrokenExecutor, OSError):
            self._note_crash()
            self.recomputed += len(items)
            return [fn(item) for item in items]
        results = [None] * len(items)
        unfinished = []
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except (BrokenExecutor, OSError):
                unfinished.append(index)
        if unfinished:
            self._note_crash()
            self.recomputed += len(unfinished)
            for index in unfinished:
                results[index] = fn(items[index])
        return results

    def submit(self, fn, *args):
        if self._broken:
            try:
                return _ImmediateFuture(fn(*args))
            except Exception as error:
                return _ImmediateFuture(error=error)
        future = self._pool.submit(fn, *args)
        return _FallbackFuture(self, future, fn, args)

    def stateful(self, factory, name: str = "stateful") -> StatefulWorker:
        worker = StatefulWorker(factory, name=name)
        self._workers.append(worker)
        return worker

    def close(self) -> None:
        for worker in self._workers:
            try:
                worker.close()
            except Exception:
                pass
        self._pool.shutdown(wait=True)
        # Free after the pool is down so no worker still views a
        # segment; anything still referenced is a lifecycle bug the
        # leak counter (and the leak tests) surface.
        self.shm_leaked += len(self.arena.close())


def make_executor(jobs: int = 1, kind: str = "auto", on_crash=None) -> Executor:
    """Build the executor a session asked for.

    ``kind``: ``serial`` forces the deterministic reference;
    ``thread``/``process`` force a substrate; ``auto`` picks serial at
    ``jobs == 1`` and the fork-based process pool otherwise (falling
    back to threads where fork is unavailable).
    """
    if kind not in ("auto", "serial", "thread", "process"):
        raise ValueError(f"unknown executor kind {kind!r}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if kind == "serial" or (kind == "auto" and jobs <= 1):
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(jobs)
    if kind == "process" or kind == "auto":
        if "fork" in mp.get_all_start_methods():
            return ProcessExecutor(jobs, on_crash=on_crash)
        return ThreadExecutor(jobs)
    raise AssertionError("unreachable")
