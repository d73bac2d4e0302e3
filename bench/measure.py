"""Clocks, repetition statistics and noise hygiene for the benchmark.

Host time is **user** CPU from ``resource.getrusage`` deltas around the
calls into the program (timing from outside).  On this class of box
``time.process_time()`` (user + sys) swung 0.31 s -> 1.75 s on
identical restart runs because page-fault *sys* time dominates
MiB-sized numpy/pickle buffers, while user time held within a few
percent; sys CPU, wall time and minor faults are recorded beside the
user time but never gated.
"""

from __future__ import annotations

import cProfile
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager

#: a repetition this far off the median user CPU is flagged in the output
REP_FLAG_SHARE = 0.10
#: (max - min) / median above this over the timed repetitions is a noisy workload
REP_SPREAD_LIMIT = 0.10


class Recorder:
    """The clocks of one repetition, and the hooks of the pass it runs in.

    Workloads build universes under :meth:`setup` (wall time, reported
    as ``setup_s``) and call into the program under :meth:`timed` (user
    CPU, reported as ``host_user_cpu_s``).  A *traced* recorder switches
    each universe's tracer on right after it is built; a *profiled*
    recorder runs ``cProfile`` inside the timed sections only.
    """

    def __init__(self, trace: bool = False, profiler: cProfile.Profile | None = None):
        self.trace = trace
        self.profiler = profiler
        self.setup_s = 0.0
        self.user_s = 0.0
        self.sys_s = 0.0
        self.wall_s = 0.0
        self.minor_faults = 0

    @contextmanager
    def setup(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - start

    @contextmanager
    def timed(self):
        wall = time.perf_counter()
        before = resource.getrusage(resource.RUSAGE_SELF)
        if self.profiler is not None:
            self.profiler.enable()
        try:
            yield
        finally:
            if self.profiler is not None:
                self.profiler.disable()
            after = resource.getrusage(resource.RUSAGE_SELF)
            self.user_s += after.ru_utime - before.ru_utime
            self.sys_s += after.ru_stime - before.ru_stime
            self.minor_faults += after.ru_minflt - before.ru_minflt
            self.wall_s += time.perf_counter() - wall

    def clocks(self) -> dict:
        return {
            "setup_s": self.setup_s,
            "user_s": self.user_s,
            "sys_s": self.sys_s,
            "wall_s": self.wall_s,
            "minor_faults": self.minor_faults,
        }


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(values: list[float]) -> dict:
    """Median, min, max, IQR and n of one metric's repetitions."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "iqr": iqr,
        "n": len(values),
    }


def noise_verdict(user_s: list[float]) -> dict:
    """Which repetitions are off the median, and is the set usable."""
    median = statistics.median(user_s)
    flagged = [
        index
        for index, value in enumerate(user_s)
        if abs(value - median) > REP_FLAG_SHARE * median
    ]
    spread = (max(user_s) - min(user_s)) / median if median > 0 else 0.0
    return {
        "flagged_repetitions": flagged,
        "spread": spread,
        "noisy": spread > REP_SPREAD_LIMIT,
    }


def git_commit(root: str) -> str | None:
    """The checkout's commit, or None outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def hygiene(root: str) -> dict:
    """What was true of the host when the result was taken."""
    load1 = os.getloadavg()[0]
    return {
        "nproc": os.cpu_count(),
        "loadavg_1min": load1,
        "loadavg_warning": load1 > 1.0,
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "commit": git_commit(root),
    }
