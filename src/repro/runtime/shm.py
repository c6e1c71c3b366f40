"""Name prefix of the shared-memory segments the fork lane used to create.

Nothing in the package creates ``/dev/shm`` segments any more (DESIGN.md
section 9, "Why the fork lane and the fan-outs went").  The prefix stays
because the leak gauge of ``benchmarks/e2e`` scans ``/dev/shm`` for
it: a change that reintroduces segments under this name and leaks them
is still caught.
"""

__all__ = ["SHM_NAME_PREFIX"]

SHM_NAME_PREFIX = "repro-shm-"
