"""Hardened auto-recovery: cascading failures, walk-back, budgets.

These tests exercise the resilience subsystem around
:class:`repro.orte.errmgr.ErrMgr`: recovery that itself survives node
death, snapshot walk-back past unusable intervals, the seeded baseline
of recovered jobs, the recovery budget, and the periodic checkpoint
scheduler that keeps the baseline fresh.

Timings are pinned against the deterministic simulation: with the
churn app at 4 MB of state per rank an interval requested at ``t``
reaches stable storage roughly ``0.21`` sim-seconds later; at 16 MB the
restart broadcast alone spans ~0.64 sim-seconds (one rsh stream per
surviving node, the node that takes two ranks receiving its two trees
back to back), wide enough to land a second crash mid-recovery.
"""

from __future__ import annotations

import pytest

from repro.orte import errmgr
from repro.simenv.kernel import WaitEvent
from repro.snapshot import (
    STAGE_STAGING,
    parse_global_dirname,
    read_global_meta,
    write_global_meta,
)
from repro.tools.api import ompi_checkpoint, ompi_run
from repro.util.ids import ProcessName
from tests.conftest import make_universe, run_gen
from tests.test_cas import recover_spans, rot_newest_at, two_intervals
from tests.test_failover import settle_lineage

#: ~2 sim-seconds of runtime, intervals commit ~0.21 s after request
CHURN_SMALL = {"loops": 200, "compute_s": 0.01, "state_bytes": 4 << 20}
#: big images: staging takes ~0.4 sim-seconds, a restart broadcast ~0.64
CHURN_BIG = {"loops": 100, "compute_s": 0.01, "state_bytes": 16 << 20}

RECOVER = {"orte_errmgr_autorecover": "1"}


def _final_job(universe):
    errmgr = universe.hnp.errmgr
    assert errmgr.recoveries, "no recovery happened"
    return universe.job(errmgr.recoveries[-1][1])


class TestCascadingFailures:
    def test_node_death_during_recovery_retries(self):
        """A node dying while the restart is in flight fails that
        attempt; the retry re-plans placement on surviving nodes."""
        universe = make_universe(4, params=RECOVER)
        job = ompi_run(universe, "churn", 4, args=CHURN_BIG, wait=False)
        # interval 1 commits ~0.58; crash after it, then again while
        # the ~0.64 s restart broadcast (0.70 -> 1.34) of the 16 MB images
        # is in flight
        ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.cluster.failures.crash_node_at(0.7, "node03")
        universe.cluster.failures.crash_node_at(0.9, "node02")
        universe.run_job_to_completion(job)

        errmgr = universe.hnp.errmgr
        # one episode, more than one attempt
        assert len(errmgr.recoveries) == 1
        [record] = errmgr.recovery_log
        assert record.attempts >= 2
        assert record.recovered
        final = _final_job(universe)
        assert final.state.value == "finished"
        # the successful attempt placed ranks only on surviving nodes
        up = {node.name for node in universe.cluster.up_nodes}
        assert set(final.placements.values()) <= up
        assert record.latency_s is not None and record.latency_s > 0
        assert record.work_lost_s is not None and record.work_lost_s > 0

    def test_refailure_recovers_from_seeded_baseline(self):
        """A recovered job that dies again before committing its own
        interval restarts from the baseline it was seeded with, and the
        periodic scheduler keeps checkpointing the final incarnation."""
        universe = make_universe(
            4, params=dict(RECOVER, snapc_full_checkpoint_every="0.25")
        )
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        universe.cluster.failures.crash_node_at(0.7, "node03")
        universe.cluster.failures.crash_node_at(1.3, "node02")
        universe.run_job_to_completion(job)

        errmgr = universe.hnp.errmgr
        assert len(errmgr.recoveries) == 2
        first, second = errmgr.recovery_log
        assert first.recovered and second.recovered
        # the chain is job -> first recovery -> second recovery
        assert errmgr.recoveries[0][0] == job.jobid
        assert errmgr.recoveries[1][0] == errmgr.recoveries[0][1]
        # the second episode fell back to the seeded baseline: the
        # re-failed incarnation had not committed an interval of its own
        assert second.snapshot == first.snapshot
        final = _final_job(universe)
        assert final.state.value == "finished"
        # scheduler kept the final incarnation checkpointing
        sched = universe.hnp.ckpt_scheduler
        assert any(jobid == final.jobid for jobid, _ in sched.taken)

    def test_recovery_budget_exhausted(self):
        """The lineage-wide attempt budget stops recovery storms."""
        universe = make_universe(
            4, params=dict(RECOVER, orte_errmgr_max_recoveries="1",
                           snapc_full_checkpoint_every="0.25")
        )
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        universe.cluster.failures.crash_node_at(0.7, "node03")
        universe.cluster.failures.crash_node_at(1.3, "node02")
        universe.run_job_to_completion(job)

        errmgr = universe.hnp.errmgr
        assert len(errmgr.recoveries) == 1
        first, second = errmgr.recovery_log
        assert first.recovered
        assert not second.recovered
        assert "budget exhausted" in (second.error or "")
        # the second incarnation stays failed
        assert universe.job(errmgr.recoveries[0][1]).state.value == "failed"


class TestSnapshotWalkBack:
    def test_walks_back_past_uncommitted_interval(self):
        """If the newest interval's persisted metadata says STAGING,
        recovery walks back to the previous committed interval."""
        universe = make_universe(4, params=RECOVER)
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.3, wait=False)

        stable = universe.cluster.stable_fs

        def poison_interval_2():
            ref2 = job.snapshots[-1]
            assert parse_global_dirname(ref2.path) == (job.jobid, 2)
            meta = yield from read_global_meta(stable, ref2)
            meta.staging = dict(
                meta.staging, state=STAGE_STAGING, committed_sim_time=None
            )
            yield from write_global_meta(stable, ref2, meta)

        # both intervals are committed by ~0.51; at 0.55 rewrite the
        # newest one's persisted state back to STAGING, then crash
        universe.kernel.call_at(
            0.55,
            lambda: universe.hnp.proc.spawn_thread(
                poison_interval_2(), name="poison", daemon=True
            ),
        )
        universe.cluster.failures.crash_node_at(0.62, "node03")
        universe.run_job_to_completion(job)

        errmgr = universe.hnp.errmgr
        [record] = errmgr.recovery_log
        assert record.recovered
        assert record.snapshot is not None
        assert parse_global_dirname(record.snapshot) == (job.jobid, 1)
        assert _final_job(universe).state.value == "finished"

    def test_no_usable_snapshot_settles_without_recovery(self):
        """Failure before any committed interval: no recovery, the
        outcome event fires None so followers do not hang."""
        universe = make_universe(4, params=RECOVER)
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        universe.cluster.failures.crash_node_at(0.05, "node03")
        universe.run_job_to_completion(job)

        errmgr = universe.hnp.errmgr
        assert errmgr.recoveries == []
        assert job.state.value == "failed"
        outcome = errmgr.recovery_outcome(job.jobid)
        assert outcome.fired

        def read_outcome():
            successor = yield WaitEvent(outcome)
            return successor

        assert run_gen(universe.kernel, read_outcome()) is None


class TestBackoff:
    @pytest.mark.parametrize("backoff", [0.25, 0.5])
    def test_a_retry_sleeps_then_checks_then_restarts(self, backoff, monkeypatch):
        """``BACKOFF_S`` paces the second attempt: the check
        that picks its snapshot runs exactly *backoff* after the first
        attempt failed — after the sleep, so the restart never acts on a
        verdict the sleep has made stale — and the restart follows it."""
        monkeypatch.setattr(errmgr, "BACKOFF_S", backoff)
        universe, job = two_intervals()
        rot_newest_at(universe, job, 0.5)  # the first attempt fails
        snapc, checks, restarted = universe.hnp.snapc, [], []
        usable, restart = snapc.usable_snapshot, snapc.global_restart

        def spy(hnp, ref, skip):
            asked_at = universe.kernel.now
            plan, why = yield from usable(hnp, ref, skip)
            checks.append((asked_at, plan.ref.path))  # every check a plan
            return plan, why

        def spy_restart(hnp, plan, options):
            restarted.append(plan)
            return (yield from restart(hnp, plan, options))

        snapc.usable_snapshot, snapc.global_restart = spy, spy_restart
        settle_lineage(universe, job)
        first, second = recover_spans(universe)
        assert not first.attrs["ok"] and second.attrs["ok"]
        (checked_at, newest), *retry = checks
        assert newest == job.snapshots[1].path and checked_at <= first.t0
        assert retry == [(first.t1 + backoff, job.snapshots[0].path)]
        assert second.t0 > first.t1 + backoff
        # each attempt restarts from the plan its own check returned
        assert [plan.ref.path for plan in restarted] == [newest, retry[0][1]]


class TestRestartCLIErrors:
    def test_main_restart_maps_restart_error(self, monkeypatch, capsys):
        """ompi-restart surfaces an unusable snapshot as one line, a
        hint toward an earlier interval, and a non-zero exit."""
        from repro.tools import cli
        from repro.util.errors import RestartError

        def refuse(universe, ref, **kwargs):
            raise RestartError(
                f"snapshot {ref.path} never reached stable storage"
            )

        monkeypatch.setattr(cli, "ompi_restart", refuse)
        assert cli.main_restart(["--np", "2", "--nodes", "2", "--at", "0.05"]) == 1
        out = capsys.readouterr().out
        assert "ompi-restart: snapshot" in out
        assert "earlier committed interval" in out


class TestRecoveryReport:
    def test_render_recovery_report(self):
        from repro.obs.report import render_recovery_report

        recovered = {
            "failed_jobid": 1, "new_jobid": 2, "attempts": 2,
            "latency_s": 0.225, "work_lost_s": 0.466,
            "snapshot": "/snapshots/ompi_global_snapshot_1.1",
            "error": None,
        }
        gave_up = {
            "failed_jobid": 2, "new_jobid": None, "attempts": 0,
            "latency_s": None, "work_lost_s": None, "snapshot": None,
            "error": "recovery budget exhausted (1/1 attempts)",
        }
        text = render_recovery_report([recovered, gave_up])
        assert "ompi_global_snapshot_1.1" in text
        assert "budget exhausted" in text
        assert render_recovery_report([]).endswith("(no recovery episodes)")


class TestProcessScopedFailures:
    def test_process_kill_triggers_recovery(self):
        """A single-process injection routes through the same
        rank-failure policy as node death."""
        universe = make_universe(4, params=RECOVER)
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)

        def kill_rank_2():
            proc = universe.lookup(ProcessName(job.jobid, 2))
            if proc is not None and proc.alive:
                universe.cluster.failures.kill_process_now(proc)

        universe.kernel.call_at(0.6, kill_rank_2)
        universe.run_job_to_completion(job)

        errmgr = universe.hnp.errmgr
        assert len(errmgr.recoveries) == 1
        [record] = errmgr.recovery_log
        assert record.recovered
        # the injected rank is recorded (survivors aborted by the
        # errmgr land there too as their exits are observed)
        assert 2 in job.failed_ranks
        assert _final_job(universe).state.value == "finished"
