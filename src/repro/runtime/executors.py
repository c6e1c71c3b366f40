"""Pluggable executors for stage work (the scheduler's muscle).

A stage graph describes *what* runs; an executor decides *where*:

- :class:`SerialExecutor` -- everything in-line in the calling thread.
  The deterministic reference: byte-identical replays, zero overhead.
- :class:`ThreadExecutor` -- a thread pool, the paper's execution model
  (appendix A.1); the session's PointSSIM scoring runs on it when
  ``jobs > 1`` (measured in DESIGN.md section 9).

Both share one contract: ``submit`` returns a future-like with
``.result()`` and ``.done()``, and an exception raised by the work is
stored in the future and re-raised when the result is read.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
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


class Executor:
    """Shared executor surface; concrete classes pick the substrate."""

    kind = "abstract"

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs

    @property
    def parallel(self) -> bool:
        """Whether this executor actually runs work concurrently."""
        return self.jobs > 1 and self.kind != "serial"

    def submit(self, fn, *args):
        raise NotImplementedError

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

    def submit(self, fn, *args):
        return self._pool.submit(fn, *args)

    def close(self) -> None:
        """Run everything already submitted, then join the threads."""
        self._pool.shutdown(wait=True)


def make_executor(jobs: int = 1, kind: str = "auto") -> Executor:
    """Build the executor a session asked for.

    ``kind``: ``serial`` forces the deterministic reference, ``thread``
    forces the pool; ``auto`` picks serial at ``jobs == 1`` and the
    thread pool above.
    """
    if kind not in ("auto", "serial", "thread"):
        raise ValueError(f"unknown executor kind {kind!r}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if kind == "serial" or (kind == "auto" and jobs == 1):
        return SerialExecutor()
    return ThreadExecutor(jobs)
