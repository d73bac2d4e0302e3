"""Periodic checkpoint scheduler — the HNP-side companion of recovery.

Automatic recovery is only as good as the newest committed snapshot
(CRAFT's observation: pair automatic restart with periodic
checkpointing so there is always something recent to recover to).  With
``snapc_full_checkpoint_every`` set to a positive number of simulated
seconds, the HNP checkpoints every RUNNING job on that cadence without
any tool process driving it.

With ``snapc_sched_adaptive=1`` the cadence is *closed-loop*: each tick
the scheduler re-computes the Young/Daly optimal interval
``sqrt(2 · MTBF · C)`` from two online estimates —

* **MTBF** — the lineage's observed lifetime divided by its failure
  count, from the error manager's per-lineage detection timestamps
  (:meth:`~repro.orte.errmgr.ErrMgr.lineage_failure_times`);
* **C** — the checkpoint cost as the *app-blocked* window, measured
  directly as the duration of each ``global_checkpoint`` call (the
  request returns when the job resumes; background staging is not the
  application's problem).

The result is clamped into ``[snapc_sched_min_every,
snapc_sched_max_every]``; before the first failure or the first cost
sample the fixed ``snapc_full_checkpoint_every`` serves as the
cold-start fallback.  Estimator state is keyed by lineage root, so a
recovered incarnation inherits its ancestors' observations.

Cadence is measured from tick *start*: the next tick fires one interval
after the previous tick began, not after the checkpoint finished, so
checkpoint duration does not drift the cadence.  A tick is skipped —
not queued — while the job is not RUNNING (a checkpoint is already in
flight, the job is launching) or while its lineage has a recovery in
flight; skip reasons land in ``scheduler.skipped`` and every tick's
interval decision in ``scheduler.decisions``.  Failed ticks (vetoed
ranks, staging backpressure timeouts) are recorded and skipped the same
way: the scheduler never aborts a job.

Recovered jobs pass through :meth:`~repro.orte.hnp.HNP.launch_and_init`
like any other launch, so they are re-attached automatically and keep
checkpointing on the same (re-tuned) cadence.  A job's loop exits
promptly when the job settles (it waits on the job's done event, not
just the timer) and its jobid is pruned from the attach set.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.orte.job import Job, JobState
from repro.orte.statestore import Durable
from repro.simenv.kernel import SimGen, WaitAny
from repro.util.errors import ReproError
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.hnp import HNP

log = get_logger("orte.sched")


class DalyEstimator(Durable):
    """Online Young/Daly interval calculator of one lineage (a ``sched``
    row, keyed by the lineage root).

    Pure bookkeeping (no kernel access), so the convergence, clamping,
    and cold-start behaviour are unit-testable in isolation.  Keeps a
    bounded window of recent checkpoint-cost samples; the interval is
    ``clamp(sqrt(2 · MTBF · mean_cost))``, or the clamped fallback
    while either estimate is missing.  ``observe_start`` is when the
    lineage's MTBF observation window opened.
    """

    TABLE = "sched"
    #: cost samples kept (recent window, so cost drift is tracked)
    WINDOW = 8

    def __init__(
        self, fallback: float, min_every: float, max_every: float, root: int = 0
    ):
        self.fallback = fallback
        self.min_every = min_every
        self.max_every = max_every
        self.root = root
        self.observe_start: float | None = None
        self.costs: list[float] = []

    def durable_key(self) -> str:
        return str(self.root)

    def to_durable(self) -> dict:
        return {"observe_start": self.observe_start, "costs": list(self.costs)}

    def observe_cost(self, cost_s: float) -> None:
        if cost_s > 0:
            self.change(costs=[*self.costs, cost_s][-self.WINDOW:])

    @property
    def cost_s(self) -> float | None:
        """Mean app-blocked checkpoint cost over the recent window."""
        if not self.costs:
            return None
        return sum(self.costs) / len(self.costs)

    def clamp(self, interval: float) -> float:
        out = max(self.min_every, interval)
        if self.max_every > 0:
            out = min(self.max_every, out)
        return out

    def interval(self, mtbf_s: float | None) -> float:
        """The Daly interval for *mtbf_s*, or the fallback cold-start."""
        cost = self.cost_s
        if mtbf_s is None or mtbf_s <= 0 or cost is None:
            return self.clamp(self.fallback)
        return self.clamp(math.sqrt(2.0 * mtbf_s * cost))


class CheckpointScheduler:
    """Per-HNP periodic checkpoint driver (one daemon loop per job)."""

    def __init__(self, hnp: "HNP"):
        self.hnp = hnp
        params = hnp.universe.params
        self.every = params.get_float("snapc_full_checkpoint_every", 0.0)
        self.adaptive = params.get_bool("snapc_sched_adaptive", False)
        self.min_every = max(
            1e-6, params.get_float("snapc_sched_min_every", 0.05)
        )
        self.max_every = params.get_float("snapc_sched_max_every", 1.0)
        #: successful ticks: (jobid, snapshot path)
        self.taken: list[tuple[int, str]] = []
        #: skipped/failed ticks: (jobid, reason)
        self.skipped: list[tuple[int, str]] = []
        #: per-tick cadence decisions:
        #: {"jobid", "at", "interval_s", "mtbf_s", "cost_s", "adaptive"}
        self.decisions: list[dict] = []
        self._attached: set[int] = set()
        #: lineage root -> Daly estimator (recovered incarnations
        #: inherit their ancestors' cost/failure observations)
        self._estimators: dict[int, DalyEstimator] = {}

    @property
    def enabled(self) -> bool:
        return self.every > 0

    # -- estimation ----------------------------------------------------------

    def _estimator(self, root: int) -> DalyEstimator:
        est = self._estimators.get(root)
        if est is None:
            est = DalyEstimator(
                self.every, self.min_every, self.max_every, root=root
            )
            est.store = self.hnp.statestore
            self._estimators[root] = est
        return est

    def rehydrate(self, table: dict) -> None:
        """Restore per-lineage cadence state after an HNP failover.

        Without this a failed-over adaptive scheduler would restart its
        MTBF observation window and forget every cost sample, snapping
        every lineage back to the cold-start cadence.
        """
        for key, row in table.items():
            self._estimator(int(key)).change(**row)

    def _mtbf(self, job: Job, est: DalyEstimator) -> float | None:
        """Observed lineage lifetime over failure count (None cold)."""
        times = self.hnp.errmgr.lineage_failure_times(job)
        if not times or est.observe_start is None:
            return None
        elapsed = self.hnp.proc.kernel.now - est.observe_start
        if elapsed <= 0:
            return None
        return elapsed / len(times)

    def interval_for(self, job: Job) -> float:
        """The cadence this job's next tick should use (records why)."""
        interval, mtbf, cost = self.every, None, None
        if self.adaptive:
            est = self._estimator(self.hnp.errmgr.lineage_root(job))
            mtbf, cost = self._mtbf(job, est), est.cost_s
            interval = est.interval(mtbf)
        self.decisions.append({
            "jobid": job.jobid,
            "at": self.hnp.proc.kernel.now,
            "interval_s": interval,
            "mtbf_s": mtbf,
            "cost_s": cost,
            "adaptive": self.adaptive,
        })
        return interval

    # -- attach / loop --------------------------------------------------------

    def attach(self, job: Job) -> None:
        """Start (once) the periodic loop for *job*."""
        if not self.enabled or job.jobid in self._attached:
            return
        if not self.hnp.proc.alive:
            return
        self._attached.add(job.jobid)
        est = self._estimator(self.hnp.errmgr.lineage_root(job))
        if est.observe_start is None:
            est.change(observe_start=self.hnp.proc.kernel.now)
        self.hnp.proc.spawn_thread(
            self._loop(job), name=f"ckpt-sched-job{job.jobid}", daemon=True
        )

    def _sleep_until(self, job: Job, wake_at: float) -> SimGen:
        """Block until *wake_at* or the job settling, whichever first."""
        kernel = self.hnp.proc.kernel
        delay = max(0.0, wake_at - kernel.now)
        timer = kernel.event(f"sched.tick.job{job.jobid}")

        def fire() -> None:
            if not timer.fired:
                timer.fire(None)

        handle = kernel.call_later(delay, fire)
        yield WaitAny([job.done_event, timer])
        # Cancelled either way: if the timer won, the heap entry is
        # already gone and cancel() is a no-op; if the job settled
        # first, the orphaned timer must not drag the clock forward.
        handle.cancel()
        return None

    def _loop(self, job: Job) -> SimGen:
        kernel = self.hnp.proc.kernel
        try:
            next_at = kernel.now + self.interval_for(job)
            while True:
                yield from self._sleep_until(job, next_at)
                if job.is_done:
                    return None
                # Cadence anchor: measure the next interval from tick
                # start, so however long the checkpoint takes, the
                # spacing between tick starts stays the interval.
                tick_start = kernel.now
                if job.state != JobState.RUNNING:
                    self.skipped.append(
                        (job.jobid, f"job is {job.state.value}")
                    )
                elif self.hnp.errmgr.is_recovering(job):
                    self.skipped.append((job.jobid, "recovery in flight"))
                else:
                    yield from self._tick(job)
                    if job.is_done:
                        return None
                next_at = max(kernel.now, tick_start + self.interval_for(job))
        finally:
            self._attached.discard(job.jobid)

    def _tick(self, job: Job) -> SimGen:
        kernel = self.hnp.proc.kernel
        root = self.hnp.errmgr.lineage_root(job)
        started = kernel.now

        def attempt() -> SimGen:
            result = yield from self.hnp.snapc.global_checkpoint(
                self.hnp, job, {}
            )
            return result

        # Race the request against the job settling: a node dying
        # mid-coordination leaves an orted RPC unanswered forever, and
        # a loop blocked on it would leak its attach-set entry and
        # never reach a recovered incarnation.
        worker = self.hnp.proc.spawn_thread(
            attempt(), name=f"ckpt-tick-job{job.jobid}", daemon=True
        )
        index, ref, exc = yield WaitAny([job.done_event, worker.done])
        if index == 0:
            self.skipped.append((job.jobid, "job settled mid-checkpoint"))
            return None
        if exc is not None:
            if isinstance(exc, ReproError):
                if not job.is_done:
                    self.skipped.append((job.jobid, str(exc)))
                    log.info(
                        "scheduled checkpoint of job %d skipped: %s",
                        job.jobid, exc,
                    )
                return None
            raise exc
        # The request returns at app resume: its duration is the
        # app-blocked cost C of the Young/Daly formula.
        self._estimator(root).observe_cost(kernel.now - started)
        self.taken.append((job.jobid, ref.path))
        kernel.tracer.count("snapc.scheduled_ckpts")
        return None
