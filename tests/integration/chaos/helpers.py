"""Picklable fault injectors for the chaos tests.

Module-level classes (picklable by reference under the ``fork`` start
method) that inject faults in a worker process.  The ``*Once`` injectors
wrap a real algorithm factory and inject exactly one fault, coordinated
through an exclusive-create sentinel file: the first worker to create
the sentinel injects, every later attempt behaves normally.  That gives
each scenario a deterministic "fail once, then recover" shape regardless
of scheduling.  :class:`KillAlwaysFactory` never recovers.
"""

from __future__ import annotations

import os
import signal
import time

from repro.api import algorithm_factory


class KillOnceFactory:
    """SIGKILLs the first worker process that builds an algorithm.

    Subsequent builds (the supervised requeue) delegate to the real
    factory, so a run that survives the kill is bit-identical to a
    fault-free one.
    """

    def __init__(self, sentinel: str, algorithm: str = "2tbins") -> None:
        self.sentinel = sentinel
        self.inner = algorithm_factory(algorithm)

    def __call__(self, x: int):
        try:
            open(self.sentinel, "x").close()
        except FileExistsError:
            return self.inner(x)
        os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("unreachable")  # pragma: no cover


class HangOnceFactory:
    """Hangs the first worker process that builds an algorithm.

    The supervisor's stall deadline must detect the wedged pool, kill
    it, and requeue; the retry sees the sentinel and runs normally.
    """

    def __init__(
        self,
        sentinel: str,
        algorithm: str = "2tbins",
        hang_seconds: float = 60.0,
    ) -> None:
        self.sentinel = sentinel
        self.inner = algorithm_factory(algorithm)
        self.hang_seconds = hang_seconds

    def __call__(self, x: int):
        try:
            open(self.sentinel, "x").close()
        except FileExistsError:
            return self.inner(x)
        time.sleep(self.hang_seconds)
        raise AssertionError("unreachable")  # pragma: no cover


class KillAlwaysFactory:
    """SIGKILLs every worker process that builds an algorithm.

    No attempt can complete, so supervision must give the shard up once
    its retry budget is spent.  Never call it in the test process.
    """

    def __call__(self, x: int):
        os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("unreachable")  # pragma: no cover
