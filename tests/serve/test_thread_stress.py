"""Fused-path groups on more threads than cores answer as they do serially.

The service runs ``execute_group`` on several executor threads, so the
kernel's per-thread generator pools, the fused seeding pass and the
shared caches it grows must not leak state between threads.  A tiny
switch interval makes the interpreter hand the GIL over between almost
every bytecode, so any such leak shows as a wrong answer.  CI also runs
this file under ``python -X dev``.
"""

from __future__ import annotations

import os
import sys
import threading
import time

from repro.group_testing import vectorized
from repro.serve.executor import execute_group
from repro.serve.request import QueryRequest

#: Wall-clock budget of the threaded phase.
BUDGET_S = 8.0


def _groups():
    """Cross-x groups at or above the fused-seeding crossover: 1+ and
    2+ for both lockstep algorithms, the probe kernel, and 2+ groups of
    32 runs or more (the capture lockstep)."""
    shapes = [
        ("2tbins", "1+", 7), ("2tbins", "2+", 7), ("exponential", "1+", 9),
        ("exponential", "2+", 9), ("prob-threshold", "1+", 8),
        ("2tbins", "2+", 40), ("exponential", "2+", 36),
    ]
    groups = []
    for g, (algorithm, model, runs) in enumerate(shapes):
        assert runs >= vectorized._FUSED_SEED_RUNS
        groups.append([
            QueryRequest(
                id=f"g{g}q{i}", tenant="t", n=64, x=(3, 20, 41, 64)[(g + i) % 4],
                threshold=8, runs=runs // 3 + (i == 0) * (runs - 3 * (runs // 3)),
                algorithm=algorithm, collision_model=model, seed=1000 * g + i,
            )
            for i in range(3)
        ])
    return groups


def test_threaded_answers_equal_serial_answers():
    groups = _groups()
    serial = [execute_group(group) for group in groups]
    threads = 2 * (os.cpu_count() or 1) + 1
    start = threading.Barrier(threads)
    deadline = [0.0]
    calls = [0] * threads
    wrong = []
    failures = []

    def worker(k: int) -> None:
        try:
            start.wait()
            i = k
            while time.monotonic() < deadline[0]:
                j = i % len(groups)
                if execute_group(groups[j]) != serial[j]:
                    wrong.append((k, j))
                calls[k] += 1
                i += 1
        except BaseException as exc:  # surfaced below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline[0] = time.monotonic() + BUDGET_S
        pool = [threading.Thread(target=worker, args=(k,)) for k in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(BUDGET_S + 60.0)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures
    assert not wrong, wrong
    assert all(calls), calls
