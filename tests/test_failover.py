"""Durable control plane: state store + HNP failover/re-election.

Covers the write-ahead state store (ordered appends, torn-record
cutoff, WAL gaps from dropped appends, compaction), the deterministic
lowest-vpid election among surviving orteds, and the rehydration
contract: an HNP-node crash mid-checkpoint, mid-stage, or mid-recovery
ends with the lineage finished and every interval whose metadata says
COMMITTED intact on stable storage — never re-shipped, never lost.
"""

from __future__ import annotations

import json

import pytest

from repro.mca.params import MCAParams
from repro.obs.report import filter_spans
from repro.orte.job import AppSpec, Job, JobState
from repro.opal.crs.chunks import ChunkManifest
from repro.orte.snapc.backends import CasBackend, TreeBackend
from repro.orte.snapc.staging import StagingRecord
from repro.orte.statestore import DEFAULT_ROOT, IllegalTransition, StateStore
from repro.simenv.campaign import (
    FAULT_HNP_CRASH,
    CampaignSpec,
    FaultSpec,
    _drain_background,
    follow_lineage,
    run_campaign,
)
from repro.simenv.kernel import Kernel, WaitEvent
from repro.snapshot import (
    SNAPSHOT_ROOT,
    STAGE_COMMITTED,
    STAGE_FAILED,
    STAGE_STAGING,
    GlobalSnapshotMeta,
    GlobalSnapshotRef,
    global_snapshot_dirname,
    parse_global_dirname,
    read_global_meta,
    staging_state,
)
from repro.tools.api import ompi_restart, ompi_run
from repro.util.errors import DeadlockError, ReproError
from repro.vfs.sharedfs import SharedFS
from tests.conftest import make_universe, run_gen

CHURN = {"loops": 150, "compute_s": 0.01, "state_bytes": 1 << 20}

FAILOVER_PARAMS = {
    "orte_errmgr_autorecover": "1",
    "orte_hnp_failover": "1",
    "snapc_full_checkpoint_every": "0.15",
}


def failover_universe(n_nodes: int = 6, **extra):
    params = dict(FAILOVER_PARAMS)
    params.update(extra)
    return make_universe(n_nodes, params)


def crash_hnp_at(universe, at: float) -> None:
    universe.kernel.call_at(
        at,
        lambda: universe.cluster.failures.crash_hnp_node_now(universe),
    )


def settle_lineage(universe, job):
    """Follow *job*'s lineage to its end, then drain background work."""
    final = run_gen(
        universe.kernel, follow_lineage(universe, job), name="follow"
    )
    _drain_background(universe)
    return final


def assert_committed_consistent(universe) -> int:
    """Every interval whose metadata on stable storage says COMMITTED is
    intact there and COMMITTED in the live staging records, and every
    COMMITTED record's metadata says so.

    Returns how many committed intervals were checked — the zero-lost
    guarantee is only meaningful when there was something to lose.
    """
    stable = universe.cluster.stable_fs
    durable = set()
    for path in stable.list_tree(SNAPSHOT_ROOT):
        ref = GlobalSnapshotRef(path.rsplit("/", 1)[0])
        if path != ref.meta_path or parse_global_dirname(ref.path) is None:
            continue
        meta = run_gen(
            universe.kernel,
            read_global_meta(stable, ref),
            name="verify-meta",
        )
        assert (meta.jobid, meta.interval) == parse_global_dirname(ref.path)
        if meta.staging["state"] == STAGE_COMMITTED:
            durable.add((meta.jobid, meta.interval))
    stager = universe.hnp.snapc.stager(universe.hnp)
    live = {
        (r.jobid, r.interval)
        for jobid in universe.jobs for r in stager.job_records(jobid)
        if r.state == STAGE_COMMITTED
    }
    assert live == durable
    return len(durable)


def live_tables(universe) -> dict:
    """What the journal should hold for the live control plane now: every
    durable record and row, each encoded by its own record type."""
    hnp = universe.hnp
    errmgr = hnp.errmgr
    records = [
        *universe.jobs.values(),
        *errmgr.recovery_log,
        *hnp.ckpt_scheduler._estimators.values(),
    ]
    tables: dict[str, dict] = {}
    for record in records:
        tables.setdefault(record.TABLE, {})[record.durable_key()] = record.to_durable()
    for rows in (hnp.ckpt_ready, errmgr._lineage, errmgr._attempts, errmgr._failures):
        if rows:
            tables[rows.table] = {str(k): rows.encode(v) for k, v in rows.items()}
    return tables


def assert_journal_matches_live(universe) -> dict:
    """``live == replay(journal)`` once a run has settled.

    Replays the store from stable storage into a fresh :class:`StateStore`
    and compares every table with what the live objects encode to now, so
    a state change that was not journalled shows as a difference; nothing
    is forgiven.  Returns the replayed tables.
    """
    store = universe.statestore
    run_gen(universe.kernel, store.flush(), name="flush")
    replayed = run_gen(
        universe.kernel, StateStore(universe, root=store.root).replay(),
        name="replay",
    )
    live = live_tables(universe)
    differ = {
        f"{table}.{key}": (live.get(table, {}).get(key), rows.get(key))
        for table in sorted(set(live) | set(replayed))
        for rows in [replayed.get(table, {})]
        for key in sorted(set(live.get(table, {})) | set(rows))
        if live.get(table, {}).get(key) != rows.get(key)
    }
    assert differ == {}, f"(live, replayed) {differ}"
    return replayed


def journal_census(universe) -> dict:
    """Count the store's puts per table from now on: ``puts``, the
    ``unchanged`` ones (rewriting the value the key already holds) and
    the ``bytes`` of the values' JSON."""
    store = universe.statestore
    put = store.put
    rows: dict[str, dict] = {}

    def counting(table, key, value):
        row = rows.setdefault(table, {"puts": 0, "unchanged": 0, "bytes": 0})
        row["puts"] += 1
        row["unchanged"] += store.tables.get(table, {}).get(key, put) == value
        row["bytes"] += len(json.dumps(value, sort_keys=True))
        put(table, key, value)

    store.put = counting
    return rows


# ---------------------------------------------------------------------------
# the state store itself
# ---------------------------------------------------------------------------


class TestStateStore:
    def _store(self, universe, **kwargs) -> StateStore:
        store = StateStore(universe, root="/test/statestore", **kwargs)
        store.attach(universe.hnp.proc)
        return store

    def _fill(self, universe, store, n: int) -> None:
        for i in range(n):
            store.put("t", f"k{i}", {"i": i})
        run_gen(universe.kernel, store.flush(), name="flush")

    def _replay(self, universe, **kwargs) -> StateStore:
        fresh = StateStore(universe, root="/test/statestore", **kwargs)
        run_gen(universe.kernel, fresh.replay(), name="replay")
        return fresh

    def test_default_config_store_is_null(self):
        universe = make_universe(2)
        assert universe.statestore.enabled is False

    def test_failover_config_store_is_real(self):
        universe = make_universe(2, {"orte_hnp_failover": "1"})
        assert universe.statestore.enabled is True

    def test_roundtrip_replay(self):
        universe = make_universe(2)
        store = self._store(universe)
        self._fill(universe, store, 5)
        assert store.appended == 5
        fresh = self._replay(universe)
        assert fresh.tables == store.tables
        assert fresh.tables["t"]["k3"] == {"i": 3}
        # new appends continue past the replayed sequence
        assert fresh._next_seq == 5

    def test_torn_record_ends_replay_at_cutoff(self):
        universe = make_universe(2)
        store = self._store(universe)
        self._fill(universe, store, 5)
        stable = universe.cluster.stable_fs
        victim = store._wal_path(2)
        data = stable.peek(victim)
        stable.poke(victim, data[: len(data) // 2])
        fresh = self._replay(universe)
        # records 0 and 1 survive; the torn record and the suffix after
        # it are untrusted even though 3 and 4 are physically intact
        assert sorted(fresh.tables["t"]) == ["k0", "k1"]

    def test_corrupt_record_hash_mismatch_ends_replay(self):
        universe = make_universe(2)
        store = self._store(universe)
        self._fill(universe, store, 3)
        stable = universe.cluster.stable_fs
        victim = store._wal_path(1)
        doc = json.loads(stable.peek(victim).decode())
        doc["value"] = {"i": 999}  # valid JSON, wrong content hash
        stable.poke(victim, json.dumps(doc, sort_keys=True).encode())
        fresh = self._replay(universe)
        assert sorted(fresh.tables["t"]) == ["k0"]

    def test_dropped_appends_leave_legal_gaps(self):
        universe = make_universe(2)
        store = self._store(universe)
        self._fill(universe, store, 2)  # seqs 0, 1 durable
        store.put("t", "k2", {"i": 2})
        store.put("t", "k3", {"i": 3})
        assert store.drop_pending() == 2  # seqs 2, 3 never written
        store.put("t", "k4", {"i": 4})  # seq 4
        run_gen(universe.kernel, store.flush(), name="flush2")
        fresh = self._replay(universe)
        # the gap does not stop replay, and the dropped records are gone
        assert sorted(fresh.tables["t"]) == ["k0", "k1", "k4"]
        assert fresh._next_seq == 5

    def test_compaction_folds_wal_into_base(self):
        universe = make_universe(2)
        store = self._store(universe, wal_max_records=3)
        self._fill(universe, store, 6)
        universe.kernel.run()  # let the compaction finish
        assert store.compactions >= 1
        stable = universe.cluster.stable_fs
        assert stable.exists("/test/statestore/base.json")
        fresh = self._replay(universe)
        assert fresh.tables == store.tables
        assert len(fresh.tables["t"]) == 6

    def test_later_put_does_not_alias_queued_value(self):
        universe = make_universe(2)
        store = self._store(universe)
        value = {"i": 0}
        store.put("t", "k", value)
        value["i"] = 77  # mutation after put must not reach the disk
        run_gen(universe.kernel, store.flush(), name="flush")
        fresh = self._replay(universe)
        assert fresh.tables["t"]["k"] == {"i": 0}


def test_an_illegal_edge_raises_and_changes_nothing():
    kernel = Kernel()
    job = Job(1, AppSpec("churn"), 1, MCAParams())
    for state in (JobState.LAUNCHING, JobState.RUNNING, JobState.FINISHED):
        job.change(state)
    with pytest.raises(IllegalTransition, match="jobs: finished -> running"):
        job.change(JobState.RUNNING)
    assert job.state is JobState.FINISHED
    meta = GlobalSnapshotMeta(
        jobid=1, interval=1, n_procs=1, sim_time=0.1, app_name="churn",
        staging=staging_state(STAGE_STAGING),
    )
    stable = SharedFS(kernel)
    record = StagingRecord.of(GlobalSnapshotRef("/snapshots/ompi_global_snapshot_1.1"), meta, kernel)
    assert run_gen(kernel, record.move(stable, STAGE_COMMITTED)) is None
    committed = (record.state, record.committed_at)
    assert committed[0] == STAGE_COMMITTED
    with pytest.raises(IllegalTransition, match="staging: committed -> staging"):
        record.move(stable, STAGE_STAGING)
    assert (record.state, record.committed_at) == committed


#: the journal census scenarios: churn np=4 with (fault, instant) pairs,
#: and the ``{table: (puts, bytes)}`` each journals (deterministic).  An
#: interval's lifecycle lives in its global metadata, not in a
#: ``staging`` table, and a commit does not rewrite its job's row: with
#: no fault 59 puts / 21,775 B became 32 / 4,761 (``staging`` 18 /
#: 10,675 gone, ``jobs`` 23 / 9,591 -> 14 / 3,252); node03 at 0.4 s plus
#: the HNP node at 0.6 s 99 / 27,736 -> 70 / 8,767.
CENSUS = {
    "no fault": ([], {
        "jobs": (14, 3252), "ready": (8, 50), "sched": (10, 1459),
    }),
    "HNP node at 0.3 s": ([("hnp", 0.3)], {
        "failures": (1, 12), "jobs": (5, 1123), "ready": (8, 50), "sched": (2, 124),
    }),
    "node03 at 0.4 s": ([("node03", 0.4)], {
        "attempts": (1, 1), "episodes": (3, 517), "failures": (1, 5),
        "jobs": (19, 4803), "lineage": (1, 1), "ready": (15, 98), "sched": (11, 1678),
    }),
    "node03 at 0.4 s, HNP node at 0.6 s": ([("node03", 0.4), ("hnp", 0.6)], {
        "attempts": (2, 2), "episodes": (6, 1085), "failures": (2, 30),
        "jobs": (23, 5822), "lineage": (2, 2), "ready": (24, 150), "sched": (11, 1676),
    }),
}


@pytest.mark.parametrize("faults, census", CENSUS.values(), ids=list(CENSUS))
def test_no_put_rewrites_the_value_its_key_holds(faults, census):
    universe = failover_universe()
    rows = journal_census(universe)
    job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
    for target, at in faults:
        if target == "hnp":
            crash_hnp_at(universe, at)
        else:
            universe.cluster.failures.crash_node_at(at, target)
    settle_lineage(universe, job)
    assert rows and {t: r["unchanged"] for t, r in rows.items() if r["unchanged"]} == {}
    assert {t: (r["puts"], r["bytes"]) for t, r in rows.items()} == census
    assert_journal_matches_live(universe)


# ---------------------------------------------------------------------------
# election
# ---------------------------------------------------------------------------


class TestElection:
    def test_lowest_vpid_survivor_wins(self):
        universe = failover_universe()
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        # the first interval commits at ~0.32; crash after it so the
        # re-elected HNP has something to recover from
        crash_hnp_at(universe, 0.35)
        final = settle_lineage(universe, job)
        assert final.state.value == "finished"
        assert universe.failovers == 1
        assert universe.hnp.recovered is True
        # node00 hosted the HNP; node01's orted has the lowest
        # surviving daemon vpid
        assert universe.hnp.proc.node.name == "node01"

    def test_cascading_failovers_walk_the_vpid_order(self):
        universe = failover_universe()
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        crash_hnp_at(universe, 0.35)
        crash_hnp_at(universe, 1.0)
        final = settle_lineage(universe, job)
        assert final.state.value == "finished"
        assert universe.failovers == 2
        assert universe.hnp.proc.node.name == "node02"
        assert_committed_consistent(universe)

    def test_failover_disabled_means_no_election(self):
        universe = make_universe(
            4,
            {
                "orte_errmgr_autorecover": "1",
                "snapc_full_checkpoint_every": "0.15",
            },
        )
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        crash_hnp_at(universe, 0.3)
        universe.kernel.run()
        assert universe.failovers == 0
        assert not universe.hnp.proc.alive
        assert job.state.value != "finished"


# ---------------------------------------------------------------------------
# crash-timing scenarios: each must end COMMITTED-consistent
# ---------------------------------------------------------------------------


class TestFailoverScenarios:
    def test_hnp_crash_mid_checkpoint(self):
        """The crash lands inside the scheduled checkpoint window; the
        orted-side local phase settles on its own and the re-elected
        HNP resumes the cadence."""
        universe = failover_universe(obs_trace_enabled="1")
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        # cadence is 0.15: 0.46 is inside the third tick's fan-out,
        # after interval 1 committed (~0.32) and with interval 2 still
        # staging — the crash interrupts a live checkpoint window
        crash_hnp_at(universe, 0.46)
        final = settle_lineage(universe, job)
        assert final.state.value == "finished"
        assert universe.failovers == 1
        assert_committed_consistent(universe)
        (span,) = filter_spans(
            universe.kernel.tracer.to_dict(), name="hnp.failover"
        )
        assert span["attrs"]["lost"] == 0
        assert_journal_matches_live(universe)

    def test_hnp_crash_mid_stage(self):
        """The crash lands while an interval is in the staging
        pipeline: committed intervals are adopted without re-shipping
        and the in-flight one is restaged or failed durably."""
        universe = failover_universe(obs_trace_enabled="1")
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        spec = CampaignSpec(
            mtbf_s=0.3,
            max_failures=1,
            start_at=0.3,
            faults=(FaultSpec(kind=FAULT_HNP_CRASH),),
        )
        report = run_campaign(universe, job, spec)
        assert report.completed, report.to_dict()
        assert report.fault_counts == {"hnp_crash": 1}
        assert universe.failovers == 1
        checked = assert_committed_consistent(universe)
        assert checked >= 1
        (span,) = filter_spans(
            universe.kernel.tracer.to_dict(), name="hnp.failover"
        )
        # the crash interrupted live staging: settled intervals were
        # adopted, and the in-flight interval was accounted for —
        # restaged, or durably failed (its source died with the node),
        # never silently dropped
        assert span["attrs"]["committed_adopted"] >= 1
        assert span["attrs"]["restaged"] + span["attrs"]["lost"] >= 1
        assert_journal_matches_live(universe)

    def test_hnp_crash_mid_recovery(self):
        """A compute node dies, and the HNP dies while recovering from
        it: the successor resumes the unsettled episode from the
        persisted error-manager state."""
        universe = failover_universe(obs_trace_enabled="1")
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        failures = universe.cluster.failures
        universe.kernel.call_at(
            0.4, lambda: failures.crash_node_now("node03")
        )
        # detection fires immediately (interval 1 is committed by 0.4);
        # the restart is still in flight when the control plane dies
        crash_hnp_at(universe, 0.43)
        final = settle_lineage(universe, job)
        assert final.state.value == "finished"
        assert final.jobid != job.jobid  # the lineage really restarted
        assert universe.failovers == 1
        assert_committed_consistent(universe)
        new_errmgr = universe.hnp.errmgr
        assert any(r.recovered for r in new_errmgr.recovery_log)
        assert_journal_matches_live(universe)

    def test_orphaned_rank_failure_hands_off(self):
        """The HNP's node also hosts rank 0: its failure notification
        arrives while no HNP is alive and must be buffered for the
        successor, not silently dropped (the errmgr.py:158 fix)."""
        universe = failover_universe(obs_trace_enabled="1")
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        crash_hnp_at(universe, 0.35)
        final = settle_lineage(universe, job)
        assert final.state.value == "finished"
        (span,) = filter_spans(
            universe.kernel.tracer.to_dict(), name="hnp.failover"
        )
        assert span["attrs"]["orphaned"] >= 1
        # the handed-off failure drove a real recovery
        assert final.jobid != job.jobid
        assert_journal_matches_live(universe)

    def test_restart_from_newest_committed_after_failover(self):
        """An explicit ompi-restart after a failover-laden run picks
        the newest COMMITTED interval and finishes."""
        universe = failover_universe()
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        crash_hnp_at(universe, 0.35)
        final = settle_lineage(universe, job)
        assert final.state.value == "finished"
        assert_committed_consistent(universe)
        assert final.snapshots, "no committed snapshot to restart from"
        restarted = ompi_restart(universe, final.snapshots[-1])
        assert restarted.state.value == "finished"
        assert restarted.results == final.results
        assert_journal_matches_live(universe)

    def test_a_staging_interval_older_than_a_commit_is_failed_not_restaged(
        self, monkeypatch
    ):
        """Interval 2 fails to stage and its FAILED metadata write bounces,
        so stable storage still says STAGING when interval 3 commits and
        mpirun dies.  The successor fails interval 2 instead of restaging
        it behind interval 3."""
        stage, persist, staged, bounced = TreeBackend.stage, StagingRecord.persist, [], []

        def stage_spy(backend, record):
            staged.append((backend.hnp.recovered, record.interval))
            if record.interval == 2:
                return "injected gather failure"
            return (yield from stage(backend, record))

        def bouncing(record, stable, meta=None):
            if record.interval == 2 and record.state == STAGE_FAILED and not bounced:
                bounced.append(record.error)
                return "injected bounce"
            return (yield from persist(record, stable, meta))

        monkeypatch.setattr(TreeBackend, "stage", stage_spy)
        monkeypatch.setattr(StagingRecord, "persist", bouncing)
        universe = failover_universe(obs_trace_enabled="1")
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        stable, killed = universe.cluster.stable_fs, []

        def kill():
            hnp = universe.hnp
            third = hnp.snapc.stager(hnp).record_for(job.jobid, 3)
            if third is None or not third.settled or universe.statestore._pending:
                universe.kernel.call_later(0.001, kill)
                return
            killed.append(third.state)
            hnp.proc.kill(ReproError("mpirun killed"))

        universe.kernel.call_at(0.5, kill)
        final = settle_lineage(universe, job)
        assert final.state.value == "finished" and killed == [STAGE_COMMITTED]
        assert bounced == ["injected gather failure"]
        (span,) = filter_spans(universe.kernel.tracer.to_dict(), name="hnp.failover")
        assert span["attrs"]["lost"] == 1 and (True, 2) not in staged
        ref = GlobalSnapshotRef(f"{SNAPSHOT_ROOT}/ompi_global_snapshot_{job.jobid}.2")
        meta = run_gen(universe.kernel, read_global_meta(stable, ref))
        assert meta.staging == {
            "state": STAGE_FAILED, "committed_sim_time": None,
            "error": "superseded by committed interval 3",
        }
        assert ref not in final.snapshots
        intervals = [parse_global_dirname(r.path)[1] for r in final.snapshots]
        assert intervals == sorted(intervals)
        assert_committed_consistent(universe)
        assert_journal_matches_live(universe)

    def test_a_moved_statestore_root_holds_the_whole_journal(self):
        """With ``statestore_root`` moved, the successor replays from there
        and nothing is ever written under the default root."""
        universe = failover_universe(
            obs_trace_enabled="1", statestore_root="/journal/control"
        )
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        crash_hnp_at(universe, 0.35)
        final = settle_lineage(universe, job)
        assert final.state.value == "finished" and universe.failovers == 1
        (span,) = filter_spans(
            universe.kernel.tracer.to_dict(), name="statestore.replay"
        )
        assert span["attrs"]["applied"] > 0
        stable = universe.cluster.stable_fs
        assert stable.list_tree("/journal/control/wal")
        assert stable.list_tree(DEFAULT_ROOT) == [] and not stable.isdir(DEFAULT_ROOT)
        assert_journal_matches_live(universe)

    # -- journal writes no other test notices ---------------------------------

    def test_spent_budget_is_journalled(self):
        """With a one-recovery budget, a crash of the recovered job ends
        the lineage, and the episode's verdict reaches the journal."""
        universe = failover_universe(orte_errmgr_max_recoveries="1")
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        universe.cluster.failures.crash_node_at(0.4, "node03")
        # node02 hosts a rank of the recovered job (placed off node03)
        universe.cluster.failures.crash_node_at(1.0, "node02")
        final = settle_lineage(universe, job)
        assert final.jobid != job.jobid and final.state.value == "failed"
        first, second = universe.hnp.errmgr.recovery_log
        assert first.recovered and not second.recovered
        replayed = assert_journal_matches_live(universe)
        assert replayed["episodes"][str(second.failed_jobid)]["error"] == (
            "recovery budget exhausted (1/1 attempts)"
        )

    def test_no_usable_snapshot_is_journalled(self):
        """Every committed interval is unreadable when recovery looks:
        the episode fails, and says why in the journal."""
        universe = failover_universe()
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        stable = universe.cluster.stable_fs
        rotted = []

        def rot():
            for ref in job.snapshots:
                stable.poke(ref.meta_path, b"{not json")
                rotted.append(ref.path)

        universe.kernel.call_at(0.39, rot)
        universe.cluster.failures.crash_node_at(0.4, "node03")
        final = settle_lineage(universe, job)
        assert rotted and final is job and job.state.value == "failed"
        [record] = universe.hnp.errmgr.recovery_log
        assert record.error == "no committed snapshot with an intact base chain"
        replayed = assert_journal_matches_live(universe)
        assert replayed["episodes"][str(job.jobid)]["error"] == record.error

    @pytest.mark.parametrize("at", [0.001, 0.02])
    def test_hnp_node_crash_while_launching_is_journalled(self, at):
        """The HNP's node, and rank 0 with it, dies while a fresh job is
        LAUNCHING: the orphaned failure fails the job, and the journal
        says so.  At 0.001 s the job's first appends were still queued
        and were dropped; the successor journals the job it adopts."""
        universe = failover_universe()
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        crash_hnp_at(universe, at)
        final = settle_lineage(universe, job)
        assert final is job and job.state.value == "failed"
        assert universe.statestore.dropped == (2 if at < 0.01 else 0)
        replayed = assert_journal_matches_live(universe)
        assert replayed["jobs"][str(job.jobid)]["state"] == "failed"

    def test_a_transition_dropped_with_mpirun_is_journalled_again(self):
        """mpirun dies 1 ms after the job FINISHED, before that append was
        written: the successor journals the job it adopts as it is."""
        universe = failover_universe()
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)

        def crash_after_finish():
            yield WaitEvent(job.done_event)
            universe.kernel.call_later(
                0.001, lambda: universe.hnp.proc.kill(ReproError("mpirun crashed"))
            )

        universe.kernel.spawn(crash_after_finish(), name="crasher", daemon=True)
        final = settle_lineage(universe, job)
        assert final is job and job.state.value == "finished"
        assert (universe.failovers, universe.statestore.dropped) == (1, 1)
        replayed = assert_journal_matches_live(universe)
        assert replayed["jobs"][str(job.jobid)]["state"] == "finished"

    def test_mpirun_crash_while_launching_is_journalled(self):
        """mpirun dies (its node stays up) while the job is LAUNCHING:
        the successor cannot finish the modex, fails the job, and
        journals that it did."""
        universe = failover_universe(obs_trace_enabled="1")
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        seen = []

        def crash_mpirun():
            seen.append(job.state.value)
            universe.hnp.proc.kill(ReproError("mpirun crashed"))

        universe.kernel.call_at(0.01, crash_mpirun)
        final = settle_lineage(universe, job)
        assert seen == ["launching"]
        assert final is job and job.state.value == "failed"
        assert universe.failovers == 1
        (span,) = filter_spans(
            universe.kernel.tracer.to_dict(), name="hnp.failover"
        )
        assert (span["attrs"]["replanned"], span["attrs"]["orphaned"]) == (1, 0)
        replayed = assert_journal_matches_live(universe)
        assert replayed["jobs"][str(job.jobid)]["state"] == "failed"


class TestCasStagingAcrossFailover:
    """``CasBackend.resume``: mpirun dies while a CAS interval is
    STAGING, its node stays up, and the successor rebuilds the ranks'
    manifests from the ``chunks.json`` beside each local snapshot."""

    PARAMS = {"snapc_full_cas": "1", "filem": "rsh"}

    def _kill_mpirun_mid_stage(self, monkeypatch, harm=None):
        """Run churn np=4 and kill mpirun the first time one of its
        intervals is STAGING and journalled so (no append pending; an
        append still queued dies with mpirun, and with it the record).
        *harm(universe, record)* runs just before.
        Returns ``(universe, job, caught record, resume results)``; each
        resume result is ``(record, error, manifests its sources hold)``."""
        resumed = []
        resume = CasBackend.resume

        def spy(backend, record):
            error = yield from resume(backend, record)
            cluster = backend.hnp.universe.cluster
            held = {} if error else {
                rank: ChunkManifest.from_json(
                    cluster.node(node).local_fs.peek(f"{src}/chunks.json")
                )
                for rank, (node, src, _dst) in zip(
                    sorted(record.meta.locals), record.gather_entries
                )
            }
            resumed.append((record, error, held))
            return error

        monkeypatch.setattr(CasBackend, "resume", spy)
        universe = failover_universe(**self.PARAMS)
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        kernel, caught = universe.kernel, []

        def poll():
            hnp = universe.hnp
            staging = [
                r for r in hnp.snapc.stager(hnp).job_records(job.jobid)
                if r.state == STAGE_STAGING
            ]
            if not staging or universe.statestore._pending:
                kernel.call_at(kernel.now + 0.001, poll)
                return
            caught.append(staging[0])
            if harm is not None:
                harm(universe, staging[0])
            hnp.proc.kill(ReproError("mpirun killed"))

        kernel.call_at(0.2, poll)
        final = settle_lineage(universe, job)
        assert final.state.value == "finished" and universe.failovers == 1
        [record] = caught
        assert record.cas
        return universe, final, record, resumed

    def test_successor_rebuilds_the_manifests_and_commits(self, monkeypatch):
        universe, final, caught, resumed = self._kill_mpirun_mid_stage(monkeypatch)
        [(record, error, held)] = resumed
        assert error is None and record.interval == caught.interval
        # the rebuilt manifests are the ones the capture wrote and the
        # dead HNP held
        assert record.rank_manifests == held == caught.rank_manifests
        stable = universe.cluster.stable_fs
        meta = run_gen(universe.kernel, read_global_meta(stable, record.ref))
        assert meta.cas and meta.staging["state"] == STAGE_COMMITTED
        assert record.ref in final.snapshots
        assert_committed_consistent(universe)
        assert_journal_matches_live(universe)
        baseline = ompi_run(make_universe(6), "churn", 4, args=CHURN).results
        assert ompi_restart(universe, record.ref).results == baseline

    def test_a_missing_chunks_json_fails_the_interval_durably(self, monkeypatch):
        def harm(universe, record):
            node, src, _dst = record.gather_entries[1]
            local = universe.cluster.node(node).local_fs
            universe.kernel.spawn(local.remove(f"{src}/chunks.json"), name="harm")

        universe, final, caught, resumed = self._kill_mpirun_mid_stage(monkeypatch, harm)
        [(record, error, _held)] = resumed
        assert record.interval == caught.interval
        assert "unreadable" in error
        stable = universe.cluster.stable_fs
        meta = run_gen(universe.kernel, read_global_meta(stable, record.ref))
        assert meta.staging["state"] == STAGE_FAILED
        assert "unreadable" in meta.staging["error"]
        assert_journal_matches_live(universe)
        hnp = universe.hnp
        live = hnp.snapc.stager(hnp).record_for(caught.jobid, caught.interval)
        assert (live.state, live.error) == (STAGE_FAILED, meta.staging["error"])
        assert record.ref not in final.snapshots
        assert_committed_consistent(universe)

    def test_an_interval_mpirun_forgot_leaves_no_local_tree(self):
        """mpirun dies at 0.201 s with interval 1 dispatched but neither
        its metadata nor its journal appends on stable storage: the
        successor knows nothing of it and sweeps its node-local trees."""
        universe = failover_universe(**self.PARAMS)
        universe.kernel.tracer.enable()
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        stable, at_kill = universe.cluster.stable_fs, []

        def kill():
            hnp = universe.hnp
            [record] = hnp.snapc.stager(hnp).job_records(job.jobid)
            at_kill.append((record.interval, record.state, stable.exists(record.ref.meta_path)))
            hnp.proc.kill(ReproError("mpirun killed"))

        universe.kernel.call_at(0.201, kill)
        final = settle_lineage(universe, job)
        assert final.state.value == "finished" and universe.failovers == 1
        assert at_kill == [(1, STAGE_STAGING, False)]
        [span] = [s for s in universe.kernel.tracer.spans if s.name == "hnp.failover"]
        assert span.attrs["swept"] == 4  # one tree per rank
        assert [
            path for node in universe.cluster.nodes if node.up
            for path in node.local_fs.list_tree("/ckpt/job1/interval1")
        ] == []
        assert_committed_consistent(universe)

    def test_a_failed_fanout_leaves_no_snapshot_behind(self):
        """No fault: the scheduler's interval 10 at 1.53 s fails as the
        ranks exit, after they wrote their local snapshots.  No record
        names those trees, so the request removes them as it fails, and
        the global directory it made on stable storage too."""
        universe = failover_universe(**self.PARAMS)
        universe.kernel.tracer.enable()
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        final = settle_lineage(universe, job)
        assert final.state.value == "finished"
        spans = universe.kernel.tracer.spans
        [failed] = [s for s in spans if s.name == "snapc.checkpoint" and not s.attrs["ok"]]
        [fanout] = [s for s in spans if s.name == "snapc.fanout" and s.attrs["interval"] == 10]
        assert failed.attrs["interval"] == 10 and fanout.attrs["errors"] == 4
        assert [
            path for node in universe.cluster.nodes if node.up
            for path in node.local_fs.list_tree("/ckpt")
        ] == []
        stable = universe.cluster.stable_fs
        assert not stable.exists(f"{SNAPSHOT_ROOT}/{global_snapshot_dirname(job.jobid, 10)}")
        assert stable.exists(job.snapshots[-1].path)
        assert_committed_consistent(universe)


def test_hnp_crash_not_applicable_without_failover():
    """The campaign vocabulary accepts hnp_crash but never fires it
    when failover is off — the fault is legal only when an election
    could win."""
    universe = make_universe(
        4,
        {
            "orte_errmgr_autorecover": "1",
            "snapc_full_checkpoint_every": "0.15",
        },
    )
    job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
    spec = CampaignSpec(
        mtbf_s=0.2,
        max_failures=1,
        start_at=0.2,
        faults=(FaultSpec(kind=FAULT_HNP_CRASH),),
    )
    report = run_campaign(universe, job, spec)
    assert report.completed
    assert report.failures == []
    assert universe.failovers == 0


def test_unknown_fault_kind_still_rejected():
    with pytest.raises(ValueError):
        FaultSpec(kind="hnp_meltdown")


def test_the_lost_episode_deadlock_names_what_each_thread_waits_on():
    """The failover deadlock of ROADMAP item 1(a), pinned at one instant
    of its window (node03 dies at 0.4 s, the HNP's node at 0.48 s) until
    that item fixes it: the error says which thread is blocked and on
    which event — the follower waits on job 1's recovery outcome, which
    never fires."""
    universe = failover_universe()
    job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
    failures = universe.cluster.failures
    universe.kernel.call_at(0.4, lambda: failures.crash_node_now("node03"))
    crash_hnp_at(universe, 0.48)
    with pytest.raises(DeadlockError) as info:
        settle_lineage(universe, job)
    assert info.value.blocked == ["follow"]
    assert str(info.value) == (
        "simulation deadlock; blocked threads: follow \u2190 WaitEvent(errmgr.outcome.job1)"
    )
