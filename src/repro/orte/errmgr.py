"""Error manager: failure detection and hardened recovery policy.

The paper lists "automatic, transparent recovery" as an intended
extension of the design; this module implements it as a resilience
subsystem rather than a one-shot gesture.  With
``orte_errmgr_autorecover=1`` the HNP reacts to a rank or node failure
by aborting the damaged job (and its in-flight staging pipeline) and
restarting it from a usable global snapshot on the surviving nodes.

The recovery path itself tolerates faults (the failure mode Skjellum &
Schafer call out for C/R libraries):

* **Bounded, backoff-paced retry** — a lineage (the original job plus
  every job recovered from it) gets ``orte_errmgr_max_recoveries``
  restart attempts total; retries after a failed attempt are paced by
  an exponential backoff starting at ``BACKOFF_S`` simulated seconds.
* **Node death during recovery** — a node dying while the restart is
  in flight fails that attempt; the next attempt re-plans placement,
  which only ever uses nodes that are still up.
* **Snapshot walk-back** — the newest entry of ``job.snapshots`` may
  be unusable (staging aborted, failed, or bytes it depends on gone);
  recovery walks back to the newest interval the snapshot coordinator
  calls usable, which verifies what is persisted on stable storage
  rather than trusting in-memory state.
* **No permanent blacklist** — a ref that fails a restart is skipped
  only for the remainder of that episode (and any interval chained on
  it is treated as broken too).  A later episode re-verifies from
  scratch: transient stable-storage faults do not poison a good
  COMMITTED interval, and storage repaired by a later checkpoint makes
  the interval usable again.
* **Recovered jobs are seeded** — a restarted job begins life with the
  snapshot it came from (and its committed ancestors) as its recovery
  baseline, so a re-failure before its first checkpoint still has
  something to recover to.

Detection and recovery are traced as ``errmgr.detect`` /
``errmgr.recover`` spans when the observability layer is enabled.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.mca.params import Param
from repro.orte.job import Job, JobState
from repro.orte.statestore import Durable, DurableMap
from repro.simenv.kernel import Delay, SimGen
from repro.snapshot import GlobalSnapshotRef, parse_global_dirname
from repro.util.errors import ReproError, RestartError, SnapshotError
from repro.util.ids import ProcessName
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.hnp import HNP
    from repro.simenv.kernel import SimEvent

log = get_logger("orte.errmgr")

AUTORECOVER = Param("orte_errmgr_autorecover", False, "restart failed jobs from their last snapshot")
MAX_RECOVERIES = Param("orte_errmgr_max_recoveries", 5, "restart attempts allowed per job lineage")
BACKOFF_S = 0.05  # base retry pacing in sim seconds (doubles per retry)


@dataclass
class RecoveryRecord(Durable):
    """The audit trail of one failure-to-recovery episode (an
    ``episodes`` row, keyed by the failed jobid)."""

    TABLE = "episodes"

    failed_jobid: int
    detected_at: float
    new_jobid: int | None = None
    recovered_at: float | None = None
    #: restart attempts spent on this episode (>= 1 once recovery ran)
    attempts: int = 0
    #: snapshot the successful restart used
    snapshot: str | None = None
    #: sim time that snapshot's image was captured (work-lost baseline)
    snapshot_sim_time: float | None = None
    #: why recovery gave up (None on success)
    error: str | None = None

    def durable_key(self) -> str:
        return str(self.failed_jobid)

    def to_durable(self) -> dict:
        return asdict(self)

    @property
    def recovered(self) -> bool:
        return self.new_jobid is not None

    @property
    def latency_s(self) -> float | None:
        """Detection to restarted-and-running."""
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.detected_at

    @property
    def work_lost_s(self) -> float | None:
        """Progress rolled back: failure time minus snapshot capture."""
        if self.snapshot_sim_time is None:
            return None
        return self.detected_at - self.snapshot_sim_time

    def to_dict(self) -> dict:
        """The journalled fields plus the derived latency and work lost."""
        return {
            **self.to_durable(),
            "latency_s": self.latency_s,
            "work_lost_s": self.work_lost_s,
        }


class ErrMgr:
    """Per-HNP failure policy engine."""

    def __init__(self, hnp: "HNP"):
        self.hnp = hnp
        self.autorecover = AUTORECOVER.read(hnp.universe.params)
        self.max_recoveries = max(1, MAX_RECOVERIES.read(hnp.universe.params))
        store = hnp.statestore
        #: one record per failure episode, recovered or not
        self.recovery_log: list[RecoveryRecord] = []
        #: recovered jobid -> the jobid it was recovered from (each
        #: DurableMap below is a journal table, a row per key)
        self._lineage = DurableMap(store, "lineage")
        #: lineage root -> restart attempts spent
        self._attempts = DurableMap(store, "attempts")
        #: lineage roots with a recovery currently in flight
        self._recovering: set[int] = set()
        #: lineage root -> detection timestamps of its failures (fed to
        #: the adaptive checkpoint scheduler's MTBF estimate)
        self._failures = DurableMap(store, "failures", encode=list, decode=tuple)
        hnp.universe.cluster.failures.on_failure(self._on_injected_failure)

    # -- detection -------------------------------------------------------------

    def _on_injected_failure(self, description: str) -> None:
        """Failure-injector callback (runs synchronously in the kernel).

        ``node:`` injections kill the orted too, so no PROC_EXIT will
        arrive for ranks on that node — the heartbeat-loss path.
        ``process:`` injections are routed through the same rank-failure
        policy rather than relying on the PROC_EXIT message surviving.
        """
        universe = self.hnp.universe
        if universe.hnp is not self.hnp:
            # A newer incarnation owns failure handling; this instance
            # (subscribed by a replaced HNP) stands down.
            return
        if not self.hnp.proc.alive:
            # The HNP died with (or before) this failure.  Giving up
            # here used to silently drop the recovery work; with the
            # durable control plane the failure is buffered and handed
            # to the next incarnation during rehydration instead.
            universe.note_orphaned_failure(description)
            return
        kind, _, target = description.partition(":")
        if kind == "node":
            for job in list(self.hnp.universe.jobs.values()):
                if job.is_done:
                    continue
                lost = [r for r, n in job.placements.items() if n == target]
                if not lost:
                    continue
                self.hnp.proc.spawn_thread(
                    self._handle_lost_ranks(job, lost, f"node {target} failed"),
                    name=f"errmgr-node-{target}-job{job.jobid}",
                    daemon=True,
                )
        elif kind == "process":
            located = self._locate_rank(target)
            if located is None:
                return
            job, rank = located
            if job.is_done:
                return
            self.hnp.proc.spawn_thread(
                self._handle_lost_ranks(job, [rank], "killed by injector"),
                name=f"errmgr-proc-{target}",
                daemon=True,
            )

    @staticmethod
    def _parse_app_label(label: str) -> tuple[int, int] | None:
        """``appJ.R`` -> ``(jobid, rank)``; None for daemons/tools."""
        if not label.startswith("app"):
            return None
        try:
            jobid_s, rank_s = label[3:].split(".", 1)
            return int(jobid_s), int(rank_s)
        except ValueError:
            return None

    def _locate_rank(self, label: str) -> tuple[Job, int] | None:
        parsed = self._parse_app_label(label)
        if parsed is None:
            return None
        job = self.hnp.universe.jobs.get(parsed[0])
        if job is None:
            return None
        return job, parsed[1]

    def _handle_lost_ranks(self, job: Job, lost: list[int], detail: str) -> SimGen:
        for rank in lost:
            yield from self.on_rank_failure(job, rank, detail)
        return None

    @property
    def recoveries(self) -> list[tuple[int, int]]:
        """Jobs recovered, episode by episode: (failed_jobid, new_jobid)."""
        return [
            (r.failed_jobid, r.new_jobid) for r in self.recovery_log if r.recovered
        ]

    # -- lineage ---------------------------------------------------------------

    def lineage_root(self, job: Job) -> int:
        """The original jobid of *job*'s recovery lineage.

        Jobs created by ``ompi-restart`` (including half-launched
        recovery attempts the error manager has not registered yet)
        are folded into their ancestor's lineage via the jobid encoded
        in the snapshot they restarted from.
        """
        jobid = job.jobid
        if jobid not in self._lineage and job.restarted_from is not None:
            parsed = parse_global_dirname(job.restarted_from.path)
            if parsed is not None and parsed[0] != jobid:
                self._lineage[jobid] = parsed[0]
        return self._root_of_jobid(jobid)

    def _root_of_jobid(self, jobid: int) -> int:
        """Lineage root by jobid alone (no Job object needed)."""
        seen: set[int] = set()
        while jobid in self._lineage and jobid not in seen:
            seen.add(jobid)
            jobid = self._lineage[jobid]
        return jobid

    def lineage_jobids(self, job: Job) -> set[int]:
        """Every jobid in *job*'s recovery lineage (root included)."""
        root = self.lineage_root(job)
        members = {root, job.jobid}
        for jobid in self._lineage:
            if self._root_of_jobid(jobid) == root:
                members.add(jobid)
        return members

    def lineage_failure_times(self, job: Job) -> list[float]:
        """Detection timestamps of every failure in *job*'s lineage.

        Recorded on first detection regardless of whether recovery is
        enabled or succeeds — the adaptive checkpoint scheduler divides
        observed lifetime by this count for its online MTBF estimate.
        """
        return list(self._failures.get(self.lineage_root(job), ()))

    def is_recovering(self, job: Job) -> bool:
        """True while *job*'s lineage has a recovery in flight."""
        return self.lineage_root(job) in self._recovering

    # -- outcome plumbing --------------------------------------------------------

    def recovery_outcome(self, jobid: int) -> "SimEvent":
        """Event fired once failure handling of *jobid* settles.

        Fires with the successor :class:`Job` when recovery succeeded,
        or ``None`` when recovery was disabled, impossible, or
        exhausted.  Campaign harnesses follow lineages with this.  The
        events live on the universe, not this instance: a follower
        waiting on an outcome must still be woken when the episode is
        finished by a *different* ErrMgr after an HNP failover.
        """
        outcomes = self.hnp.universe.recovery_outcomes
        event = outcomes.get(jobid)
        if event is None:
            event = self.hnp.proc.kernel.event(f"errmgr.outcome.job{jobid}")
            outcomes[jobid] = event
        return event

    def _settle(self, jobid: int, successor: "Job | None") -> None:
        event = self.recovery_outcome(jobid)
        if not event.fired:
            event.fire(successor)

    # -- durable state (HNP failover) --------------------------------------------

    def rehydrate(self, tables: dict) -> None:
        """Restore lineages, recovery budgets, and the episode log.

        The budget restore is the safety-critical part: a failed-over
        HNP that forgot ``_attempts`` would grant every lineage a fresh
        ``max_recoveries`` budget after each crash of the control
        plane, unbounding recovery.
        """
        for rows in (self._lineage, self._attempts, self._failures):
            rows.restore(tables.get(rows.table, {}))
        self.recovery_log = sorted(
            (
                self._episode(**row)
                for row in tables.get(RecoveryRecord.TABLE, {}).values()
            ),
            key=lambda r: (r.detected_at, r.failed_jobid),
        )

    def _episode(self, **fields) -> RecoveryRecord:
        """A recovery record bound to the journal, journalled as it is."""
        record = RecoveryRecord(**fields)
        record.store = self.hnp.statestore
        record.change()
        return record

    def resume_pending(self) -> None:
        """Resume recovery episodes the dead incarnation left open.

        An episode is open when its job is FAILED but its outcome event
        never fired.  Lineage roots already being recovered (for
        instance via an orphaned-failure hand-off moments ago) are
        skipped — their in-flight episode settles the outcome.
        """
        universe = self.hnp.universe
        scheduled: set[int] = set()
        for jobid in sorted(universe.jobs):
            job = universe.jobs[jobid]
            if job.state != JobState.FAILED:
                continue
            if self.recovery_outcome(jobid).fired:
                continue
            root = self.lineage_root(job)
            if root in self._recovering or root in scheduled:
                continue
            scheduled.add(root)
            record = next((
                r for r in self.recovery_log
                if r.failed_jobid == jobid and not r.recovered and r.error is None
            ), None)
            log.warning(
                "resuming interrupted recovery of job %d after HNP failover",
                jobid,
            )
            self.hnp.proc.spawn_thread(
                self._recover_or_settle(job, root, record),
                name=f"errmgr-resume-job{jobid}",
                daemon=True,
            )

    def _recover_or_settle(
        self, job: Job, root: int, record: "RecoveryRecord | None" = None
    ) -> SimGen:
        """Recover *job* when policy and its snapshots allow; else its
        outcome settles unrecovered."""
        if self.autorecover and job.snapshots:
            yield from self._autorecover(job, root, record)
        else:
            self._settle(job.jobid, None)
        return None

    # -- policy ------------------------------------------------------------------

    def on_rank_failure(self, job: Job, rank: int, detail) -> SimGen:
        if job.is_done and job.state != JobState.FAILED:
            return None
        first_failure = job.state != JobState.FAILED
        log.warning("job %d rank %d failed: %s", job.jobid, rank, detail)
        job.failed_ranks.add(rank)
        job.mark_failed()
        if not first_failure:
            return None
        root = self.lineage_root(job)
        self._failures[root] = (
            *self._failures.get(root, ()), self.hnp.proc.kernel.now
        )
        span = self.hnp.proc.kernel.tracer.begin(
            "errmgr.detect", cat="errmgr", jobid=job.jobid, rank=rank,
            root=root, detail=str(detail),
        )
        # A dead job's staging pipeline must stop before anything else:
        # the stager would otherwise keep draining its intervals and
        # could append to job.snapshots after recovery has begun.
        self.hnp.snapc.abort_job(self.hnp, job.jobid)
        self._abort_survivors(job)
        in_recovery = root in self._recovering
        span.end(recovering=in_recovery)
        if in_recovery:
            # The failure hit a half-recovered incarnation; the active
            # recovery loop observes it as a failed attempt and retries.
            return None
        yield from self._recover_or_settle(job, root)
        return None

    def _abort_survivors(self, job: Job) -> None:
        """mpirun aborts the whole job on any rank failure (MPI default)."""
        for rank in range(job.np):
            if rank in job.failed_ranks:
                continue
            proc = self.hnp.universe.lookup(ProcessName(job.jobid, rank))
            if proc is not None and proc.alive:
                proc.kill(ReproError(f"job {job.jobid} aborted by errmgr"))

    # -- recovery ----------------------------------------------------------------

    def _autorecover(
        self, job: Job, root: int, record: "RecoveryRecord | None" = None
    ) -> SimGen:
        if root in self._recovering:
            # A concurrent path (failover resume racing a fresh
            # detection) already owns this lineage's episode.
            return None
        kernel = self.hnp.proc.kernel
        if record is None:
            record = self._episode(failed_jobid=job.jobid, detected_at=kernel.now)
            self.recovery_log.append(record)
        self._recovering.add(root)
        retry = 0
        #: refs that failed a restart *this episode* — skipped until the
        #: episode ends, then re-verified from scratch next time (a
        #: transient fault must not poison a committed interval forever)
        skip: set[str] = set()
        try:
            while True:
                spent = self._attempts.get(root, 0)
                if spent >= self.max_recoveries:
                    record.change(error=(
                        f"recovery budget exhausted "
                        f"({spent}/{self.max_recoveries} attempts)"
                    ))
                    log.warning("job %d: %s", job.jobid, record.error)
                    self._settle(job.jobid, None)
                    return None
                # Back off first: the restart acts on a check made after
                # the sleep, never on one the sleep has made stale.
                if retry:
                    yield Delay(BACKOFF_S * (2 ** (retry - 1)))
                plan = yield from self._pick_snapshot(job, skip)
                if plan is None:
                    record.change(
                        error="no committed snapshot with an intact base chain"
                    )
                    log.warning("job %d: %s", job.jobid, record.error)
                    self._settle(job.jobid, None)
                    return None
                ref = plan.ref
                # Durable *before* the restart runs: a failed-over HNP
                # must charge this attempt against the lineage budget.
                self._attempts[root] = spent + 1
                record.change(attempts=record.attempts + 1)
                retry += 1
                span = kernel.tracer.begin(
                    "errmgr.recover", cat="errmgr", jobid=job.jobid,
                    attempt=record.attempts, snapshot=ref.path,
                )
                log.warning(
                    "autorecovering job %d from %s (attempt %d/%d)",
                    job.jobid, ref.path, record.attempts, self.max_recoveries,
                )
                try:
                    new_job = yield from self.hnp.snapc.global_restart(self.hnp, plan, {})
                except (RestartError, SnapshotError) as exc:
                    # The preload found what the check could not (a
                    # chunk lost or rotten since): skip the snapshot for
                    # the rest of this episode and walk back.  It is not
                    # blacklisted — the next episode re-verifies it, so a
                    # since-repaired chunk store does not cost it forever.
                    skip.add(ref.path)
                    span.end(ok=False, error=str(exc))
                    log.warning(
                        "recovery attempt from %s failed: %s", ref.path, exc
                    )
                    continue
                except ReproError as exc:
                    # Transient failure — typically another node dying
                    # mid-restart.  Back off and retry: placement
                    # re-plans over the nodes still up.
                    span.end(ok=False, error=str(exc))
                    log.warning(
                        "recovery attempt of job %d failed: %s", job.jobid, exc
                    )
                    continue
                span.end(ok=True, new_jobid=new_job.jobid)
                self._lineage[new_job.jobid] = root
                record.change(
                    new_jobid=new_job.jobid,
                    recovered_at=kernel.now,
                    snapshot=ref.path,
                    snapshot_sim_time=plan.meta.sim_time,
                )
                self._seed_baseline(job, new_job, ref)
                self._settle(job.jobid, new_job)
                log.warning(
                    "job %d recovered as job %d (attempt %d)",
                    job.jobid, new_job.jobid, record.attempts,
                )
                return new_job
        finally:
            self._recovering.discard(root)

    def _pick_snapshot(self, job: Job, skip: set[str] | None = None) -> SimGen:
        """The :class:`RestartPlan` of the newest usable snapshot in *job*'s list.

        Walks ``job.snapshots`` newest-first, skipping refs that
        already failed a restart this episode (*skip*) and intervals
        the snapshot coordinator cannot restart from right now: not
        COMMITTED, or depending on bytes that are gone or on a ref in
        *skip*.  Returns None if nothing survives.
        """
        skip = skip or set()
        for ref in list(reversed(job.snapshots)):
            if ref.path in skip:
                continue
            plan, why = yield from self.hnp.snapc.usable_snapshot(
                self.hnp, ref, skip
            )
            if plan is not None:
                return plan
            log.warning(
                "job %d: snapshot %s: %s; walking back", job.jobid, ref.path, why
            )
        return None

    @staticmethod
    def _seed_baseline(old: Job, new_job: Job, ref: GlobalSnapshotRef) -> None:
        """Give the recovered job the failed job's committed history.

        ``global_restart`` already seeds the restarted-from ref and its
        base chain; recovery knows more — every committed interval of
        the failed lineage up to the one used — and hands the whole
        prefix over so walk-back has depth on a re-failure.
        """
        try:
            idx = old.snapshots.index(ref)
        except ValueError:
            return
        prefix = list(old.snapshots[: idx + 1])
        tail = [r for r in new_job.snapshots if r not in prefix]
        new_job.snapshots = prefix + tail
