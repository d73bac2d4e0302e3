"""Shared-nothing, process-parallel execution of a fleet grid.

Each :class:`~repro.fleet.spec.GridCell` runs in its own simulated
universe inside a pool worker (:func:`run_cell` — a module-level
function so :class:`concurrent.futures.ProcessPoolExecutor` pickles it
by reference; the payloads and results are plain dicts).  Nothing is
shared between cells, so the only coordination is the seed derivation
in the spec — which is a pure function — and an N-worker run is
byte-identical to a serial one.

**Isolation.**  A wedged run cannot hang the sweep: the worker arms a
``SIGALRM`` wall-clock watchdog around the simulation and reports a
timeout in-band; any other exception is likewise caught and returned
as a failed result.  The alarm repeats until disarmed, because Python
ignores an exception raised inside a finalizer (a ``__del__``, a
generator being closed): a one-shot alarm landing there was lost and
the cell ran to the end.  The parent retries a failed cell up to
``FleetSpec.retries`` times (campaign outcomes where the *job* failed
are valid results, not errors — only worker crashes/timeouts retry).

**Progress.**  After every settled cell the runner emits one line —
runs done/failed, ETA from the mean cell wall time, and the aggregate
simulated events/sec from the merged ``KernelStats`` — through a
caller-supplied callback (default: the module logger).
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from typing import Callable

from repro.fleet.report import CellResult, FleetReport
from repro.fleet.spec import FleetSpec
from repro.simenv.kernel import KernelStats
from repro.util.errors import SimInterrupt
from repro.util.logging import get_logger

log = get_logger("fleet.runner")

#: watchdog re-fire period once the budget is spent, wall seconds
REARM_S = 0.05


class FleetTimeout(SimInterrupt):
    """A cell exceeded its wall-clock budget (watchdog fired).

    A :class:`~repro.util.errors.SimInterrupt` so the DES kernel lets
    it pass straight through ``run()`` instead of recording it as a
    crash of whichever simulated thread the alarm landed in.
    """


def _arm_watchdog(timeout_s: float | None):
    """Arm a SIGALRM wall-clock watchdog; returns a disarm token.

    Only possible on the main thread of a process with SIGALRM (pool
    workers qualify); otherwise the cell runs unguarded — the parent's
    retry policy still bounds the damage to one worker.
    """
    if not timeout_s or timeout_s <= 0:
        return None
    if not hasattr(signal, "SIGALRM"):
        return None  # pragma: no cover - non-POSIX
    if threading.current_thread() is not threading.main_thread():
        return None  # pragma: no cover - exotic embedding

    def on_alarm(signum, frame):
        # Never into run_cell's own frame or the disarm: what runs there
        # is the bookkeeping around the body, which must not be cut short.
        if frame is None or frame.f_code not in _UNINTERRUPTIBLE:
            raise FleetTimeout(f"run exceeded {timeout_s:g}s wall clock")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s, REARM_S)
    return previous


def _disarm_watchdog(token) -> None:
    if token is None:
        return
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, token)


def _scheduler_summary(universe) -> dict | None:
    """Checkpoint-scheduler audit trail (E13 reads this per cell)."""
    sched = getattr(universe.hnp, "ckpt_scheduler", None)
    if sched is None:
        return None
    return {
        "taken": len(sched.taken),
        "skipped": len(sched.skipped),
        "tuned_intervals_s": [
            d["interval_s"]
            for d in sched.decisions
            if d.get("mtbf_s") is not None
        ],
    }


def run_cell(payload: dict) -> dict:
    """Execute one grid cell; never raises — errors return in-band.

    Runs in a pool worker (or inline for the serial path): builds a
    fresh universe from the payload's derived cluster seed, launches
    the app, drives the fault campaign to settlement, and ships the
    campaign report + kernel stats back as plain dicts.
    """
    from repro.mca.params import MCAParams
    from repro.orte.universe import Universe
    from repro.simenv.campaign import run_campaign
    from repro.simenv.cluster import Cluster, ClusterSpec
    from repro.tools.api import ompi_run

    out = {
        "key": payload["key"],
        "coords": dict(payload["coords"]),
        "cluster_seed": payload["cluster_seed"],
        "ok": False,
        "error": None,
        "report": None,
        "scheduler": None,
        "kernel_stats": None,
    }
    started = time.perf_counter()
    failure: BaseException | None = None
    token = _arm_watchdog(payload.get("timeout_s"))
    try:
        spec = ClusterSpec(
            seed=payload["cluster_seed"], **payload["cluster_kwargs"]
        )
        universe = Universe(
            Cluster(spec), MCAParams(dict(payload["mca_params"]))
        )
        job = ompi_run(
            universe,
            payload["app"],
            payload["np"],
            args=dict(payload["app_args"]),
            wait=False,
        )
        report = run_campaign(universe, job, payload["campaign"])
        out["ok"] = True
        out["report"] = report.to_dict()
        out["scheduler"] = _scheduler_summary(universe)
        out["kernel_stats"] = universe.kernel.stats.to_dict()
    except FleetTimeout as exc:
        failure = exc
    except Exception as exc:  # worker boundary: a cell's failure is a result row
        failure = exc
    finally:
        _disarm_watchdog(token)
    if isinstance(failure, FleetTimeout):
        out["error"] = f"timeout: {failure}"
    elif failure is not None:
        out["error"] = f"{type(failure).__name__}: {failure}"
    out["wall_s"] = time.perf_counter() - started
    return out


_UNINTERRUPTIBLE = (run_cell.__code__, _disarm_watchdog.__code__)


class FleetRunner:
    """Shard a :class:`FleetSpec`'s grid across worker processes."""

    def __init__(
        self,
        spec: FleetSpec,
        progress: Callable[[str], None] | None = None,
    ):
        self.spec = spec
        self._progress = progress if progress is not None else log.info

    def run(self, workers: int = 1) -> FleetReport:
        """Execute every cell; returns the cross-run meta-report.

        ``workers <= 1`` runs cells inline in this process (the fair
        serial baseline for speedup measurements); otherwise a process
        pool of that size is used.  Results are ordered by the spec's
        deterministic cell order either way.
        """
        cells = self.spec.cells()
        payloads = [self.spec.payload(cell) for cell in cells]
        started = time.perf_counter()
        if workers <= 1:
            outs = self._run_serial(payloads, started)
        else:
            outs = self._run_pool(payloads, workers, started)
        wall = time.perf_counter() - started
        report = FleetReport(
            name=self.spec.name,
            workers=max(1, workers),
            wall_s=wall,
            cells=[
                CellResult(
                    key=out["key"],
                    coords=out["coords"],
                    cluster_seed=out["cluster_seed"],
                    ok=out["ok"],
                    attempts=out["attempts"],
                    wall_s=out["wall_s"],
                    error=out["error"],
                    report=out["report"],
                    scheduler=out["scheduler"],
                    kernel_stats=out["kernel_stats"],
                )
                for out in outs
            ],
            spec=self.spec.describe(),
        )
        agg = report.aggregates()
        self._progress(
            f"fleet {self.spec.name}: {agg['ok']}/{agg['runs']} ok "
            f"({agg['failed']} failed) in {wall:.1f}s wall with "
            f"{report.workers} worker(s)"
        )
        return report

    # -- serial path ---------------------------------------------------------

    def _run_serial(self, payloads: list[dict], started: float) -> list[dict]:
        outs: list[dict] = []
        for index, payload in enumerate(payloads):
            attempts = 1
            out = run_cell(payload)
            while not out["ok"] and attempts <= self.spec.retries:
                attempts += 1
                out = run_cell(payload)
            out["attempts"] = attempts
            outs.append(out)
            self._emit_progress(outs, len(payloads), started)
        return outs

    # -- pool path -----------------------------------------------------------

    def _run_pool(
        self, payloads: list[dict], workers: int, started: float
    ) -> list[dict]:
        # Fork start-up is cheap and inherits the imported modules; the
        # cells never share mutable state, so fork's usual hazards do
        # not apply.  Fall back to the platform default elsewhere.
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context()
        results: dict[int, dict] = {}
        attempts = dict.fromkeys(range(len(payloads)), 1)
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            pending = {
                pool.submit(run_cell, payload): index
                for index, payload in enumerate(payloads)
            }
            while pending:
                done, _ = futures_wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    try:
                        out = future.result()
                    except Exception as exc:
                        # The worker process itself died (e.g. a
                        # BrokenProcessPool); synthesize a failed result
                        # so the retry/report machinery sees it.
                        out = self._broken_result(payloads[index], exc)
                    if not out["ok"] and attempts[index] <= self.spec.retries:
                        attempts[index] += 1
                        try:
                            pending[pool.submit(run_cell, payloads[index])] = (
                                index
                            )
                            continue
                        except Exception as exc:  # pool unusable
                            out = self._broken_result(payloads[index], exc)
                    out["attempts"] = attempts[index]
                    results[index] = out
                    self._emit_progress(
                        list(results.values()), len(payloads), started
                    )
        return [results[index] for index in sorted(results)]

    @staticmethod
    def _broken_result(payload: dict, exc: BaseException) -> dict:
        return {
            "key": payload["key"],
            "coords": dict(payload["coords"]),
            "cluster_seed": payload["cluster_seed"],
            "ok": False,
            "error": f"worker died: {type(exc).__name__}: {exc}",
            "report": None,
            "scheduler": None,
            "kernel_stats": None,
            "wall_s": 0.0,
        }

    # -- progress ------------------------------------------------------------

    def _emit_progress(
        self, outs: list[dict], total: int, started: float
    ) -> None:
        done = len(outs)
        failed = sum(1 for out in outs if not out["ok"])
        elapsed = time.perf_counter() - started
        eta = (elapsed / done) * (total - done) if done else float("inf")
        merged = KernelStats()
        for out in outs:
            if out.get("kernel_stats"):
                merged.merge(out["kernel_stats"])
        rate = merged.to_dict()["events_per_cpu_sec"]
        self._progress(
            f"fleet {self.spec.name}: {done}/{total} runs "
            f"({failed} failed), eta {eta:.1f}s, "
            f"{rate:,.0f} events/cpu-sec aggregate"
        )
