"""Adaptive (Young/Daly) checkpoint cadence and scheduler hygiene.

The estimator is pure bookkeeping, so its convergence/clamping/cold
start behaviour is unit-tested directly; the scheduler integration
tests pin the attach-set pruning, the prompt loop exit on job settle,
and the closed loop actually re-tuning the cadence from observed
failures and measured checkpoint costs.
"""

from __future__ import annotations

import math

import pytest

from repro.orte.scheduler import DalyEstimator
from repro.simenv import CampaignSpec, run_campaign
from repro.tools.api import ompi_restart, ompi_run
from tests.conftest import make_universe

CHURN_SMALL = {"loops": 200, "compute_s": 0.01, "state_bytes": 4 << 20}
RECOVER = {"orte_errmgr_autorecover": "1"}
ADAPTIVE = dict(
    RECOVER,
    snapc_full_checkpoint_every="0.25",
    snapc_sched_adaptive="1",
    snapc_sched_min_every="0.05",
    snapc_sched_max_every="0.6",
)


class TestDalyEstimator:
    def test_cold_start_returns_clamped_fallback(self):
        est = DalyEstimator(fallback=0.25, min_every=0.05, max_every=1.0)
        assert est.interval(None) == 0.25
        # no cost sample yet: mtbf alone is not enough
        assert est.interval(0.5) == 0.25
        # a fallback outside the clamp band is clamped too
        low = DalyEstimator(fallback=0.01, min_every=0.05, max_every=1.0)
        assert low.interval(None) == 0.05

    def test_daly_formula(self):
        est = DalyEstimator(fallback=0.25, min_every=0.001, max_every=0.0)
        est.observe_cost(0.02)
        assert est.interval(1.0) == pytest.approx(math.sqrt(2 * 1.0 * 0.02))

    def test_clamping_both_ends(self):
        est = DalyEstimator(fallback=0.25, min_every=0.05, max_every=1.0)
        est.observe_cost(0.02)
        # tiny MTBF -> tiny optimum -> min clamp
        assert est.interval(0.001) == 0.05
        # huge MTBF -> huge optimum -> max clamp
        assert est.interval(1000.0) == 1.0
        # max_every=0 means uncapped
        uncapped = DalyEstimator(fallback=0.25, min_every=0.05, max_every=0.0)
        uncapped.observe_cost(0.02)
        assert uncapped.interval(1000.0) == pytest.approx(
            math.sqrt(2 * 1000.0 * 0.02)
        )

    def test_cost_window_is_bounded_and_averaged(self):
        est = DalyEstimator(fallback=0.25, min_every=0.001, max_every=0.0)
        for cost in [10.0, 10.0, 10.0] + [0.02] * DalyEstimator.WINDOW:
            est.observe_cost(cost)
        # the early outliers aged out of the window entirely
        assert est.cost_s == pytest.approx(0.02)

    def test_non_positive_costs_ignored(self):
        est = DalyEstimator(fallback=0.25, min_every=0.001, max_every=0.0)
        est.observe_cost(0.0)
        est.observe_cost(-1.0)
        assert est.cost_s is None
        assert est.interval(1.0) == 0.25

    def test_converges_under_steady_observations(self):
        est = DalyEstimator(fallback=0.25, min_every=0.001, max_every=0.0)
        intervals = []
        for _ in range(12):
            est.observe_cost(0.03)
            intervals.append(est.interval(0.8))
        assert intervals[-1] == pytest.approx(math.sqrt(2 * 0.8 * 0.03))
        # once the window is full of identical samples, it is stable
        assert intervals[-1] == intervals[-4]


class TestSchedulerHygiene:
    def test_attach_set_pruned_and_loop_exits_promptly(self):
        """The loop waits on the job's done event, so it exits (and
        prunes the attach set) the moment the job settles — not one
        full period later, which with a long cadence would leak the
        jobid until deep in the drain."""
        universe = make_universe(
            4, params={"snapc_full_checkpoint_every": "10.0"}
        )
        sched = universe.hnp.ckpt_scheduler
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"
        # pruned at settle time, with the sim clock still at the finish
        assert sched._attached == set()
        assert universe.kernel.now < 10.0
        assert sched.taken == []  # cadence longer than the job

    def test_fixed_cadence_records_decisions(self):
        universe = make_universe(
            4, params={"snapc_full_checkpoint_every": "0.25"}
        )
        sched = universe.hnp.ckpt_scheduler
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL)
        assert job.state.value == "finished"
        assert any(jobid == job.jobid for jobid, _ in sched.taken)
        assert sched.decisions
        assert all(not d["adaptive"] for d in sched.decisions)
        assert all(d["interval_s"] == 0.25 for d in sched.decisions)

    def test_newest_scheduled_snapshot_restarts_exactly(self):
        """Every scheduled tick commits an interval of the job, and the
        newest one restarts to the uninterrupted results."""
        args = {"loops": 60, "compute_s": 0.01, "msgs_per_loop": 2}
        base = ompi_run(make_universe(2), "churn", 2, args=args).results
        universe = make_universe(
            2, params={"snapc_full_checkpoint_every": "0.2"}
        )
        job = ompi_run(universe, "churn", 2, args=args)
        sched = universe.hnp.ckpt_scheduler
        assert len(sched.taken) >= 2
        assert sched.taken == [(job.jobid, ref.path) for ref in job.snapshots]
        assert ompi_restart(universe, job.snapshots[-1]).results == base


class TestAdaptiveCadence:
    def test_closed_loop_retunes_after_failures(self):
        """After a failure the adaptive path has an MTBF estimate and a
        measured cost, and the chosen interval obeys the clamp band."""
        universe = make_universe(4, params=ADAPTIVE)
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        universe.cluster.failures.crash_node_at(0.7, "node03")
        universe.run_job_to_completion(job)

        errmgr = universe.hnp.errmgr
        assert errmgr.recoveries and errmgr.recovery_log[0].recovered
        final = universe.job(errmgr.recoveries[-1][1])
        assert final.state.value == "finished"

        sched = universe.hnp.ckpt_scheduler
        assert sched.taken  # checkpoints happened on both incarnations
        adaptive = [d for d in sched.decisions if d["adaptive"]]
        assert adaptive == sched.decisions
        tuned = [d for d in adaptive if d["mtbf_s"] is not None]
        assert tuned, "no decision saw the failure history"
        for d in tuned:
            assert d["cost_s"] is None or d["cost_s"] > 0
            assert 0.05 <= d["interval_s"] <= 0.6
        # cost was actually measured from real global_checkpoint calls
        assert any(d["cost_s"] for d in adaptive)
        # the recovered incarnation kept checkpointing on the loop
        assert any(jobid == final.jobid for jobid, _ in sched.taken)

    def test_adaptive_campaign_completes(self):
        """Full closed loop under a Poisson crash campaign."""
        universe = make_universe(6, params=ADAPTIVE)
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        report = run_campaign(
            universe, job, CampaignSpec(mtbf_s=0.5, max_failures=2,
                                        start_at=0.35)
        )
        assert report.completed, report.to_dict()
        assert report.committed_checkpoints >= 1
        sched = universe.hnp.ckpt_scheduler
        assert any(d["mtbf_s"] for d in sched.decisions)

    def test_interval_shrinks_when_failures_are_frequent(self):
        """More observed failures per unit time -> shorter cadence than
        the MTBF-free cold start would pick (the point of the loop)."""
        universe = make_universe(4, params=ADAPTIVE)
        job = ompi_run(universe, "churn", 4, args=CHURN_SMALL, wait=False)
        universe.cluster.failures.crash_node_at(0.6, "node03")
        universe.cluster.failures.crash_node_at(1.2, "node02")
        universe.run_job_to_completion(job)

        sched = universe.hnp.ckpt_scheduler
        tuned = [d for d in sched.decisions
                 if d["mtbf_s"] is not None and d["cost_s"] is not None]
        assert tuned
        expected = [
            sched._estimators[
                universe.hnp.errmgr.lineage_root(job)
            ].clamp(math.sqrt(2 * d["mtbf_s"] * d["cost_s"]))
            for d in tuned
        ]
        for decision, want in zip(tuned, expected):
            assert decision["interval_s"] == pytest.approx(want)
