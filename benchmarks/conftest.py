"""Benchmark-suite configuration and shared micro-measurement helpers."""

import logging

from repro.simenv.kernel import Delay, Kernel

logging.getLogger("repro").setLevel(logging.CRITICAL)


def kernel_event_throughput(
    n_threads: int = 200,
    wakeups_per_thread: int = 500,
    zero_delay: bool = True,
) -> dict:
    """Time raw kernel event throughput in isolation.

    Spawns *n_threads* generator threads that each block
    *wakeups_per_thread* times — on ``Delay(0)`` (the ready-deque fast
    path) or on a tiny positive delay (the heap path) — and reports the
    scheduler's own :class:`~repro.simenv.kernel.KernelStats` numbers.
    Use it to cite before/after figures for scheduler changes without
    any protocol stack in the loop.

    Returns the ``stats_snapshot()`` dict of the finished kernel.
    """
    kernel = Kernel()

    def worker(tick: float):
        for _ in range(wakeups_per_thread):
            yield Delay(tick)
        return None

    # stagger heap-path delays so the heap sees genuine reordering work
    for i in range(n_threads):
        tick = 0.0 if zero_delay else 1e-6 * (1 + i % 7)
        kernel.spawn(worker(tick), name=f"bench-{i}")
    kernel.run()
    return kernel.stats_snapshot()
