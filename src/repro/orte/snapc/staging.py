"""Background staging coordinator for SNAPC ``full`` (Figure 1-F).

The paper says the global coordinator aggregates local snapshots onto
stable storage *while the application resumes normal operation*.  This
module makes that true: once every local snapshot is written and the
D/E notifications are back, the checkpoint request is answered and the
job returns to RUNNING; the FILEM gather, local-staging cleanup, and
global-metadata commit run here, in a per-job background worker inside
the HNP.

Lifecycle of one interval (a :class:`StagingRecord`, declared as
:data:`STAGE_LIFECYCLE`):

``STAGING`` (enqueued, metadata persisted with ``staging.state =
"staging"``) → ``COMMITTED`` (all local snapshots on stable storage,
metadata rewritten, the interval appended to ``job.snapshots``) or
``FAILED`` (a source node died mid-stage and retries were exhausted —
the application is never touched; the interval is simply not usable
and the next checkpoint is forced to a full image).

Ordering and backpressure: one worker per job drains a FIFO queue, so
intervals commit in request order; at most ``snapc_full_stage_depth``
intervals may be in flight (queued or staging), and a new checkpoint
request blocks — *before* the application is disturbed — until a slot
frees up.

The coordinator also owns the incremental-checkpoint planning state:
which interval the next delta should diff against, the base-chain of
global directories a delta interval depends on, full-image cadence
(``snapc_full_interval_every``), and when a chain is compacted
(``snapc_full_max_chain`` — a chain that would grow past the bound is
reset during the newest interval's commit, without touching the
application).

*How* an interval's bytes are moved, compacted, checked and brought back
is the business of its :class:`~repro.orte.snapc.backends.StagingBackend`,
looked up by ``record.cas`` / ``meta.cas``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.opal.crs.chunks import KIND_DELTA, KIND_FULL
from repro.orte.job import JobState
from repro.orte.snapc.backends import CasBackend, StagingBackend, TreeBackend
from repro.orte.statestore import Durable
from repro.simenv.kernel import SimGen, WaitEvent
from repro.snapshot import (
    STAGE_COMMITTED,
    STAGE_FAILED,
    STAGE_STAGING,
    GlobalSnapshotMeta,
    GlobalSnapshotRef,
    parse_global_dirname,
    read_global_meta,
    staging_state,
    write_global_meta,
)
from repro.util.errors import (
    NetworkError,
    ReproError,
    SnapshotError,
    VFSError,
)
from repro.util.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.orte.hnp import HNP
    from repro.orte.job import Job
    from repro.orte.snapc.full import FullSNAPC
    from repro.simenv.kernel import Kernel, Queue, SimEvent

log = get_logger("orte.snapc.stage")

#: the plan of an interval that stands on its own (plans and records
#: speak of kinds in the chunk format's words, KIND_FULL / KIND_DELTA)
FULL_PLAN = {
    "kind": KIND_FULL,
    "base_interval": None,
    "base_chain": [],
    "compact": False,
}


#: each state -> the states an interval may move to
STAGE_LIFECYCLE = {STAGE_STAGING: {STAGE_COMMITTED, STAGE_FAILED}}


@dataclass
class StagingRecord(Durable):
    """One interval's journey from local snapshots to stable storage (a
    ``staging`` row, journalled at dispatch, compaction and settle, so a
    failed-over HNP knows which intervals were in flight and which are
    durable: the COMMITTED rows are the never-re-ship contract)."""

    TABLE = "staging"
    LIFECYCLE = STAGE_LIFECYCLE

    jobid: int
    interval: int
    ref: GlobalSnapshotRef
    meta: GlobalSnapshotMeta
    #: "full" or "delta" (what the ranks were asked to write)
    kind: str
    #: global snapshot dirs this interval depends on (oldest first)
    base_chain: list[str]
    #: rewrite this interval as a full image during commit
    compact: bool
    #: FILEM work: (node_name, local_src_dir, stable_dst_dir); empty
    #: when snapshots were written directly to stable storage
    gather_entries: list[tuple[str, str, str]]
    terminate: bool
    done: "SimEvent"
    enqueued_at: float
    #: which backend stores this interval (False: tree, True: CAS)
    cas: bool = False
    #: what the backend's ``describe`` kept of the ranks' replies
    #: (opaque to the coordinator; never journalled)
    rank_manifests: dict = field(default_factory=dict)
    state: str = STAGE_STAGING
    error: str | None = None
    bytes_moved: int = 0
    #: sum of the ranks' logical image sizes (set by the CAS backend;
    #: the dedup ratio is bytes_logical / bytes_moved)
    bytes_logical: int = 0
    committed_at: float | None = None

    @property
    def settled(self) -> bool:
        return self.state != STAGE_STAGING

    def durable_key(self) -> str:
        return f"{self.jobid}.{self.interval}"

    def to_durable(self) -> dict:
        """The lifecycle state journalled to the control-plane store."""
        return {
            "jobid": self.jobid,
            "interval": self.interval,
            "path": self.ref.path,
            "kind": self.kind,
            "base_chain": list(self.base_chain),
            "compact": self.compact,
            "gather_entries": [list(e) for e in self.gather_entries],
            "cas": self.cas,
            "terminate": self.terminate,
            "state": self.state,
            "error": self.error,
            "committed_at": self.committed_at,
        }

    @classmethod
    def from_durable(
        cls,
        value: dict,
        *,
        meta: GlobalSnapshotMeta,
        done: "SimEvent",
        now: float,
    ) -> "StagingRecord":
        """Rebuild a record from its :meth:`to_durable` form; *meta*,
        *done* and *now* are the fields that never persist."""
        fields = {**value, "meta": meta, "done": done, "enqueued_at": now}
        fields["ref"] = GlobalSnapshotRef(fields.pop("path"))
        fields["base_chain"] = list(value["base_chain"])
        fields["gather_entries"] = [tuple(e) for e in value["gather_entries"]]
        return cls(**fields)


@dataclass
class _JobStaging:
    """Per-job staging pipeline state."""

    jobid: int
    queue: "Queue"
    slot_event: "SimEvent"
    inflight: int = 0
    worker_started: bool = False
    records: dict[int, StagingRecord] = field(default_factory=dict)
    #: global dirs whose staging failed — anything chained on them is doomed
    failed_dirs: set[str] = field(default_factory=set)
    #: next checkpoint must be a full image (set after a staging failure)
    force_full: bool = False
    #: delta intervals dispatched since the last full one
    since_full: int = 0
    #: global dirs since the last full interval, oldest (the full) first
    chain_dirs: list[str] = field(default_factory=list)
    #: last interval whose local snapshots were successfully written
    last_interval: int | None = None
    #: the job failed; queued and in-flight intervals must not commit
    aborted: bool = False


class StagingCoordinator:
    """Per-HNP owner of the background staging pipeline."""

    def __init__(self, snapc: "FullSNAPC", hnp: "HNP"):
        self.snapc = snapc
        self.hnp = hnp
        params = snapc.params
        self.depth = max(1, params.get_int("snapc_full_stage_depth", 2))
        self.every = max(1, params.get_int("snapc_full_interval_every", 1))
        self.max_chain = max(1, params.get_int("snapc_full_max_chain", 4))
        #: ``record.cas`` / ``meta.cas`` -> the backend storing that interval
        self.backends: dict[bool, StagingBackend] = {
            False: TreeBackend(self),
            True: CasBackend(self),
        }
        self._jobs: dict[int, _JobStaging] = {}

    def backend_for(self, results: dict[int, dict]) -> StagingBackend:
        """The backend a new interval with these rank replies stages by."""
        return self.backends[self.backends[True].accepts(results)]

    @property
    def _kernel(self) -> "Kernel":
        return self.hnp.proc.kernel

    def _state(self, jobid: int) -> _JobStaging:
        st = self._jobs.get(jobid)
        if st is None:
            st = _JobStaging(
                jobid=jobid,
                queue=self._kernel.queue(f"snapc.stage.job{jobid}"),
                slot_event=self._kernel.event(f"snapc.stage.slot.job{jobid}"),
            )
            self._jobs[jobid] = st
        return st

    # -- backpressure --------------------------------------------------------

    def acquire_slot(self, jobid: int) -> SimGen:
        """Block until fewer than ``depth`` intervals are in flight."""
        st = self._state(jobid)
        while st.inflight >= self.depth:
            yield WaitEvent(st.slot_event)
        st.inflight += 1
        return None

    def release_slot(self, jobid: int) -> None:
        """Give a slot back without dispatching (aborted checkpoint)."""
        self._free_slot(self._state(jobid))

    def _free_slot(self, st: _JobStaging) -> None:
        st.inflight = max(0, st.inflight - 1)
        old, st.slot_event = st.slot_event, self._kernel.event(
            f"snapc.stage.slot.job{st.jobid}"
        )
        if not old.fired:
            old.fire(None)

    # -- incremental planning ------------------------------------------------

    def plan_interval(self, jobid: int) -> dict:
        """Decide full vs delta for the next interval (no state change).

        Returns ``{"kind", "base_interval", "base_chain", "compact"}``.
        """
        st = self._state(jobid)
        incremental = (
            self.every > 1
            and st.last_interval is not None
            and not st.force_full
            and st.since_full < self.every - 1
            and bool(st.chain_dirs)
        )
        if not incremental:
            return dict(FULL_PLAN)
        return {
            "kind": KIND_DELTA,
            "base_interval": st.last_interval,
            "base_chain": list(st.chain_dirs),
            "compact": len(st.chain_dirs) + 1 > self.max_chain,
        }

    # -- durable state -------------------------------------------------------

    def _record_from(
        self, value: dict, meta: GlobalSnapshotMeta | None = None
    ) -> StagingRecord:
        """A journalled record brought back to life in this incarnation.

        Without *meta* (a settled record adopted as bookkeeping, or one
        whose real file is unreadable) it carries a placeholder: needed
        structurally, while the ``metadata.json`` the previous
        incarnation wrote stays authoritative.
        """
        jobid, interval = int(value["jobid"]), int(value["interval"])
        if meta is None:
            meta = GlobalSnapshotMeta(
                jobid=jobid, interval=interval, n_procs=0,
                sim_time=0.0, app_name="",
            )
        record = StagingRecord.from_durable(
            value,
            meta=meta,
            done=self._kernel.event(f"snapc.commit.job{jobid}.{interval}"),
            now=self._kernel.now,
        )
        record.store = self.hnp.statestore
        return record

    def _fail(self, st: _JobStaging, record: StagingRecord, error: str) -> None:
        """Settle *record* FAILED: anything chained on it is doomed and
        the next checkpoint is forced to a full image."""
        record.change(STAGE_FAILED, error=error)
        st.failed_dirs.add(record.ref.path)
        st.force_full = True

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, record: StagingRecord) -> None:
        """Hand a fanned-out interval to the background worker.

        The caller's backpressure slot transfers to the record; the
        worker releases it when the interval settles.
        """
        st = self._state(record.jobid)
        st.records[record.interval] = record
        st.last_interval = record.interval
        if record.kind == KIND_FULL or record.compact:
            st.since_full = 0
            st.chain_dirs = [record.ref.path]
            st.force_full = False
        else:
            st.since_full += 1
            st.chain_dirs.append(record.ref.path)
        record.store = self.hnp.statestore
        record.change()  # journalled as dispatched, STAGING
        st.queue.put(record)
        if not st.worker_started:
            st.worker_started = True
            self.hnp.proc.spawn_thread(
                self._worker(st), name=f"snapc-stage-job{record.jobid}",
                daemon=True,
            )

    # -- abort (error manager) -------------------------------------------------

    _ABORT_ERROR = "staging aborted: job failed"

    def abort_job(self, jobid: int) -> None:
        """Stop staging for a failed job (called by the error manager).

        Queued (not yet started) intervals are failed immediately, and
        no interval of an aborted job is ever appended to its
        ``job.snapshots`` — recovery may already be walking that list.
        The one interval already mid-gather is allowed to settle on its
        own merits: its data predates the failure, so if the gather
        succeeds its COMMITTED metadata remains valid for an explicit
        ``ompi-restart``.
        """
        st = self._jobs.get(jobid)
        if st is None or st.aborted:
            return
        st.aborted = True
        st.force_full = True
        while True:
            ok, record = st.queue.try_get()
            if not ok:
                break
            record.meta.staging = staging_state(STAGE_FAILED, self._ABORT_ERROR)
            self._fail(st, record, self._ABORT_ERROR)
            if not record.done.fired:
                record.done.fire(record.state)
            if self.hnp.proc.alive:
                self.hnp.proc.spawn_thread(
                    self._write_meta(record),
                    name=f"snapc-stage-abort-{record.jobid}.{record.interval}",
                    daemon=True,
                )
            self._free_slot(st)
        log.warning("job %d staging pipeline aborted", jobid)

    # -- lookup (restart / tools) ----------------------------------------------

    def record_for(self, jobid: int, interval: int) -> StagingRecord | None:
        st = self._jobs.get(jobid)
        return st.records.get(interval) if st is not None else None

    def wait_settled(self, record: StagingRecord) -> SimGen:
        """Block until *record* commits or fails; returns its state."""
        if not record.settled:
            yield WaitEvent(record.done)
        return record.state

    def committed_meta(self, path: str) -> SimGen:
        """The metadata of global snapshot directory *path* if it is
        COMMITTED — by the live record when this coordinator has one,
        and by what is persisted on stable storage — else None."""
        parsed = parse_global_dirname(path)
        live = self.record_for(*parsed) if parsed is not None else None
        if live is not None and live.state != STAGE_COMMITTED:
            return None
        try:
            meta = yield from read_global_meta(
                self.hnp.universe.cluster.stable_fs, GlobalSnapshotRef(path)
            )
        except ReproError:
            return None
        state = (meta.staging or {}).get("state", STAGE_COMMITTED)
        return meta if state == STAGE_COMMITTED else None

    def _write_meta(self, record: StagingRecord) -> SimGen:
        """Persist ``record.meta``; returns the error if stable storage
        bounced the write (the record still knows its state), else None."""
        span = self._kernel.tracer.begin(
            "snapc.meta", cat="snapc", jobid=record.jobid,
            interval=record.interval,
        )
        try:
            yield from write_global_meta(
                self.hnp.universe.cluster.stable_fs, record.ref, record.meta
            )
        except (VFSError, NetworkError) as exc:
            return str(exc)
        span.end(state=record.meta.staging.get("state"))
        return None

    # -- the worker ------------------------------------------------------------

    def _worker(self, st: _JobStaging) -> SimGen:
        while True:
            record = yield from st.queue.get()
            try:
                yield from self._stage_one(st, record)
            finally:
                self._free_slot(st)

    def _stage_one(self, st: _JobStaging, record: StagingRecord) -> SimGen:
        backend = self.backends[record.cas]
        span = self._kernel.tracer.begin(
            "snapc.stage", cat="snapc", jobid=record.jobid,
            interval=record.interval, kind=record.kind,
            entries=len(record.gather_entries),
        )
        # Persist the in-flight state first so the interval is never
        # observable as stable before it is.  An injected stable-storage
        # write fault here fails the interval, not the worker thread.
        record.meta.staging = staging_state(STAGE_STAGING)
        bounced = yield from self._write_meta(record)
        if bounced:
            error = f"staging metadata write failed: {bounced}"
        else:
            error = backend.doomed_by(record, st.failed_dirs)

        if error is None:
            error = yield from backend.stage(record)

        if error is None and record.compact:
            error = yield from backend.compact(record)

        if error is None:
            record.meta.staging = staging_state(
                STAGE_COMMITTED, committed_sim_time=self._kernel.now
            )
            bounced = yield from self._write_meta(record)
            if bounced:
                # The data landed but the commit record did not: the
                # interval is not observably stable, so it fails (and
                # the next checkpoint is forced full).
                error = f"commit metadata write failed: {bounced}"

        if error is None:
            record.change(STAGE_COMMITTED, committed_at=self._kernel.now)
            job = self.hnp.universe.jobs.get(record.jobid)
            # HALTED jobs (checkpoint-and-terminate) still collect their
            # final commit; FAILED jobs must not — recovery may already
            # be walking job.snapshots.
            if job is not None and not st.aborted and job.state != JobState.FAILED:
                job.change(snapshots=[*job.snapshots, record.ref])
            log.info(
                "job %d interval %d committed to stable storage (%s, %d bytes)",
                record.jobid, record.interval, record.kind, record.bytes_moved,
            )
        else:
            record.meta.staging = staging_state(STAGE_FAILED, error)
            yield from self._write_meta(record)
            self._fail(st, record, error)
            log.warning(
                "job %d interval %d failed to stage: %s",
                record.jobid, record.interval, error,
            )
        span.end(ok=error is None, bytes=record.bytes_moved)
        backend.settled(record)
        if not record.done.fired:
            record.done.fire(record.state)
        return None

    # -- HNP failover rehydration -------------------------------------------------

    def rehydrate(self, table: dict) -> SimGen:
        """Rebuild the staging pipeline from the durable store.

        Returns ``(restaged, lost, adopted)``: in-flight STAGING
        intervals re-dispatched through the normal worker, STAGING
        intervals that could not be rebuilt (source node gone, local
        snapshots unreadable — failed durably, never silently dropped),
        and settled records adopted as bookkeeping.  COMMITTED
        intervals are **never re-shipped**: adoption only reinstates
        the record and the ``job.snapshots`` entry; the bytes already
        on stable storage are the source of truth.  Re-dispatch itself
        is idempotent — every backend's ``stage`` skips what already
        landed — so an interval half-staged by the dead HNP finishes
        instead of doubling.
        """
        restaged = lost = adopted = 0
        records = sorted(
            table.values(),
            key=lambda v: (int(v["jobid"]), int(v["interval"])),
        )
        for value in records:
            jobid = int(value["jobid"])
            interval = int(value["interval"])
            st = self._state(jobid)
            # Delta-chain planning state died with the old HNP; the
            # next checkpoint of every rehydrated job is forced full.
            st.force_full = True
            if st.last_interval is None or interval > st.last_interval:
                st.last_interval = interval
            job = self.hnp.universe.jobs.get(jobid)
            if job is not None and job.next_interval <= interval:
                job.change(next_interval=interval + 1)
            if value.get("state") in (STAGE_COMMITTED, STAGE_FAILED):
                self._adopt_settled(st, value, job)
                adopted += 1
            elif (yield from self._restage(st, value)):
                restaged += 1
            else:
                lost += 1
        return restaged, lost, adopted

    def _adopt_settled(
        self, st: _JobStaging, value: dict, job: "Job | None"
    ) -> None:
        """Reinstate a COMMITTED/FAILED record without touching bytes."""
        record = self._record_from(value)
        record.done.fire(record.state)
        st.records[record.interval] = record
        if record.state == STAGE_FAILED:
            st.failed_dirs.add(record.ref.path)
        elif job is not None and all(
            s.path != record.ref.path for s in job.snapshots
        ):
            # Records arrive in interval order, so the newest committed
            # interval lands last — exactly what restart picks.
            job.change(snapshots=[*job.snapshots, record.ref])

    def _restage(self, st: _JobStaging, value: dict) -> SimGen:
        """Re-dispatch one in-flight interval; True if it re-entered
        the pipeline, False if it had to be failed durably."""
        try:
            meta = yield from read_global_meta(
                self.hnp.universe.cluster.stable_fs,
                GlobalSnapshotRef(value["path"]),
            )
        except (SnapshotError, VFSError) as exc:
            meta, error = None, f"global metadata lost across failover: {exc}"
        else:
            record = self._record_from(value, meta)
            error = yield from self.backends[record.cas].resume(record)
        if error is None:
            yield from self.acquire_slot(st.jobid)
            self.dispatch(record)
            log.info(
                "job %d interval %d re-dispatched after HNP failover",
                st.jobid, record.interval,
            )
            return True
        # Unrecoverable: ``staging.state = failed`` goes into the global
        # metadata so an explicit ``ompi-restart`` never picks the
        # interval up — into what the previous incarnation wrote when
        # that was readable (updated, never clobbered), into a
        # placeholder only when it was not.
        record = self._record_from(value, meta)
        record.meta.staging = staging_state(STAGE_FAILED, error)
        st.records[record.interval] = record
        self._fail(st, record, error)
        record.done.fire(record.state)
        yield from self._write_meta(record)
        log.warning(
            "job %d interval %d lost across HNP failover: %s",
            st.jobid, record.interval, error,
        )
        return False

    def job_records(self, jobid: int) -> list[StagingRecord]:
        """All staging records of *jobid*, in interval order."""
        st = self._jobs.get(jobid)
        if st is None:
            return []
        return [st.records[i] for i in sorted(st.records)]
