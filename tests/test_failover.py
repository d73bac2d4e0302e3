"""Durable control plane: state store + HNP failover/re-election.

Covers the write-ahead state store (ordered appends, torn-record
cutoff, WAL gaps from dropped appends, compaction), the deterministic
lowest-vpid election among surviving orteds, and the rehydration
contract: an HNP-node crash mid-checkpoint, mid-stage, or mid-recovery
ends with the lineage finished and every interval the store calls
COMMITTED intact on stable storage — never re-shipped, never lost.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.report import filter_spans
from repro.orte.snapc.admission import StagingAdmission
from repro.orte.snapc.staging import StagingRecord
from repro.orte.statestore import StateStore
from repro.simenv.campaign import (
    FAULT_HNP_CRASH,
    CampaignSpec,
    FaultSpec,
    _drain_background,
    follow_lineage,
    run_campaign,
)
from repro.simenv.kernel import Kernel
from repro.snapshot import (
    STAGE_COMMITTED,
    STAGE_STAGING,
    GlobalSnapshotMeta,
    GlobalSnapshotRef,
    parse_global_dirname,
    read_global_meta,
)
from repro.tools.api import ompi_restart, ompi_run
from repro.util.errors import ReproError
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
    """Every interval the store calls COMMITTED is intact on disk.

    Returns how many committed intervals were checked — the zero-lost
    guarantee is only meaningful when there was something to lose.
    """
    stable = universe.cluster.stable_fs
    table = universe.statestore.tables.get("staging", {})
    committed = [
        v for v in table.values() if v["state"] == STAGE_COMMITTED
    ]
    for value in committed:
        ref = GlobalSnapshotRef(value["path"])
        meta = run_gen(
            universe.kernel,
            read_global_meta(stable, ref),
            name="verify-meta",
        )
        assert meta.staging["state"] == STAGE_COMMITTED, value["path"]
        assert meta.jobid == value["jobid"]
        assert meta.interval == value["interval"]
    return len(committed)


class _Recorder:
    """Stands in for the state store: keeps what the writers would put."""

    def __init__(self):
        self.tables: dict[str, dict] = {}

    def put(self, table: str, key: str, value) -> None:
        self.tables.setdefault(table, {})[key] = json.loads(json.dumps(value))


def assert_journal_matches_live(universe) -> dict:
    """``live == replay(journal)`` once a run has settled.

    Replays the store from stable storage into a fresh :class:`StateStore`
    and compares every table with what its writers journal for the live
    objects now — each writer's own encoding, so a state change that was
    not journalled shows as a difference.  Returns the replayed tables.
    """
    store, hnp = universe.statestore, universe.hnp
    run_gen(universe.kernel, store.flush(), name="flush")
    replayed = run_gen(
        universe.kernel, StateStore(universe, root=store.root).replay(),
        name="replay",
    )
    live = _Recorder()
    stager = hnp.snapc.stager(hnp)
    hnp.statestore = live
    try:
        live.put("universe", "jobid_floor", max(universe.jobs))
        for jobid, job in sorted(universe.jobs.items()):
            hnp._persist_job(job)
            for record in stager.job_records(jobid):
                stager._persist_record(record)
        for jobid in hnp.ckpt_ready:
            hnp._persist_ready(jobid)
        hnp.errmgr._persist()
        for root in hnp.ckpt_scheduler._observe_start:
            hnp.ckpt_scheduler._persist_cadence(root)
    finally:
        hnp.statestore = store
    # What is not journalled on purpose: a settled interval's gather work
    # (adopted with none), registrations of jobs already over (nothing
    # reads them again), and the lineage link of an ompi-restart'ed job
    # (folded in lazily from ``job.restarted_from``, which survives).
    for tables in (live.tables, replayed):
        for value in tables.get("staging", {}).values():
            if value["state"] != STAGE_STAGING:
                value["gather_entries"] = []
    for key in set(replayed.get("ready", {})) - set(live.tables.get("ready", {})):
        if universe.jobs[int(key)].is_done:
            del replayed["ready"][key]
    journalled = replayed.get("errmgr", {}).get("lineage", {})
    lineage = live.tables["errmgr"]["lineage"]
    for key, parent in list(lineage.items()):
        ref = universe.jobs[int(key)].restarted_from
        if key not in journalled and ref and parse_global_dirname(ref.path)[0] == parent:
            del lineage[key]
    differ = {}
    for table in sorted(set(live.tables) | set(replayed)):
        mine, theirs = live.tables.get(table, {}), replayed.get(table, {})
        for key in sorted(set(mine) | set(theirs)):
            # an empty live value may never have been journalled at all
            if mine.get(key) != theirs.get(key) and (mine.get(key) or key in theirs):
                differ[f"{table}.{key}"] = (mine.get(key), theirs.get(key))
    assert differ == {}, f"(live, replayed) {differ}"
    return replayed


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


@pytest.mark.parametrize("cas", [False, True], ids=["plain", "cas"])
def test_staging_record_durable_roundtrip(cas):
    """``from_durable(to_durable(r))`` restores every persisted field,
    through the store's own JSON encoding."""
    kernel = Kernel()
    meta = GlobalSnapshotMeta(
        jobid=3, interval=2, n_procs=2, sim_time=0.4, app_name="churn"
    )
    record = StagingRecord(
        jobid=3,
        interval=2,
        ref=GlobalSnapshotRef("/snapshots/job3/2"),
        meta=meta,
        kind="delta",
        base_chain=["/snapshots/job3/1"],
        compact=True,
        gather_entries=[("node1", "/tmp/r0", "/snapshots/job3/2/r0")],
        terminate=True,
        done=kernel.event("done"),
        enqueued_at=0.5,
        cas=cas,
        state=STAGE_COMMITTED,
        error="late",
        committed_at=0.75,
    )
    value = json.loads(json.dumps(record.to_durable()))
    again = StagingRecord.from_durable(
        value, meta=meta, done=record.done, now=record.enqueued_at
    )
    assert again == record
    assert again.to_durable() == value


def test_reclaim_all_returns_tokens_and_clears_dead_waiters():
    universe = make_universe(2)
    admission = StagingAdmission(universe.kernel, tokens=1)
    run_gen(universe.kernel, admission.acquire(7), name="acquire-7")
    universe.kernel.spawn(admission.acquire(8), name="acquire-8", daemon=True)
    universe.kernel.run()  # parks the second acquire in the FIFO
    assert admission.held_by(7) == 1
    assert admission.waiting == 1
    assert admission.reclaim_all() == 1
    assert admission.holders() == []
    assert admission.waiting == 0
    # the pool is whole again: a fresh acquire is immediate, instead of
    # the freed token having been handed to the dead queued waiter
    run_gen(universe.kernel, admission.acquire(9), name="acquire-9")
    assert admission.held_by(9) == 1


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

    def test_admission_tokens_reclaimed_across_failover(self):
        """With a one-token universe gate, the token an in-flight
        transfer held when the HNP died must return to the pool — the
        gate object itself survives on the universe."""
        universe = failover_universe(snapc_stage_admission_tokens="1")
        job = ompi_run(universe, "churn", 4, args=CHURN, wait=False)
        # building the stager installs the universe-wide gate
        gate = universe.hnp.snapc.stager(universe.hnp).admission
        assert universe.staging_admission is gate
        assert gate.tokens == 1
        crash_hnp_at(universe, 0.35)
        final = settle_lineage(universe, job)
        assert final.state.value == "finished"
        # same gate, alive across the failover, and nothing leaked
        assert universe.staging_admission is gate
        assert gate.holders() == []
        assert gate.waiting == 0
        stager = universe.hnp.snapc.stager(universe.hnp)
        assert stager.admission is gate
        assert_committed_consistent(universe)
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
        assert replayed["errmgr"]["log"][1]["error"] == (
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
        assert replayed["errmgr"]["log"][0]["error"] == record.error

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
