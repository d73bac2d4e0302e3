"""Multiple concurrent jobs in one universe: isolation, concurrent
checkpoints, independent restarts."""

from repro.tools.api import (
    checkpoint_ref,
    ompi_checkpoint,
    ompi_ps,
    ompi_restart,
    ompi_run,
)
from tests.conftest import make_universe

ARGS_A = {"loops": 60, "compute_s": 0.01, "msgs_per_loop": 2}
#: a short jacobi (0.64 sim-s) that overlaps the whole churn job
ARGS_B = {"n_global": 256, "iters": 1000, "iter_compute_s": 6e-4}


class TestConcurrentJobs:
    def test_two_jobs_share_the_cluster(self):
        universe = make_universe(4)
        job_a = ompi_run(universe, "churn", 4, args=ARGS_A, wait=False)
        job_b = ompi_run(universe, "jacobi", 4, args=ARGS_B, wait=False)
        universe.run_job_to_completion(job_a)
        universe.run_job_to_completion(job_b)
        assert job_a.state.value == "finished"
        assert job_b.state.value == "finished"
        # Results match solo runs (no cross-talk).
        solo_a = ompi_run(make_universe(4), "churn", 4, args=ARGS_A)
        solo_b = ompi_run(make_universe(4), "jacobi", 4, args=ARGS_B)
        assert job_a.results == solo_a.results
        assert job_b.results == solo_b.results

    def test_concurrent_checkpoints_of_different_jobs(self):
        universe = make_universe(4)
        job_a = ompi_run(universe, "churn", 4, args=ARGS_A, wait=False)
        job_b = ompi_run(universe, "churn", 4, args=ARGS_A, wait=False)
        h_a = ompi_checkpoint(universe, job_a.jobid, at=0.1, wait=False)
        h_b = ompi_checkpoint(universe, job_b.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job_a)
        universe.run_job_to_completion(job_b)
        assert h_a.result()["ok"], h_a.result()
        assert h_b.result()["ok"], h_b.result()
        assert h_a.result()["snapshot"] != h_b.result()["snapshot"]

    def test_checkpoint_one_job_does_not_touch_the_other(self):
        universe = make_universe(4)
        job_a = ompi_run(universe, "churn", 4, args=ARGS_A, wait=False)
        job_b = ompi_run(universe, "churn", 4, args=ARGS_A, wait=False)
        handle = ompi_checkpoint(
            universe, job_a.jobid, at=0.1, terminate=True, wait=False
        )
        universe.run_job_to_completion(job_a)
        universe.run_job_to_completion(job_b)
        assert job_a.state.value == "halted"
        assert job_b.state.value == "finished"  # unaffected
        assert handle.result()["ok"]

    def test_restart_while_other_job_runs(self):
        solo = ompi_run(make_universe(4), "churn", 4, args=ARGS_A)
        universe = make_universe(4)
        job_a = ompi_run(universe, "churn", 4, args=ARGS_A, wait=False)
        handle = ompi_checkpoint(
            universe, job_a.jobid, at=0.1, terminate=True, wait=False
        )
        universe.run_job_to_completion(job_a)
        # Start a second job, then restart the first alongside it.
        job_b = ompi_run(universe, "churn", 4, args=ARGS_A, wait=False)
        restarted = ompi_restart(universe, checkpoint_ref(handle))
        universe.run_job_to_completion(job_b)
        assert restarted.state.value == "finished"
        assert job_b.state.value == "finished"
        assert restarted.results == solo.results
        assert job_b.results == solo.results

    def test_ps_lists_every_job(self):
        universe = make_universe(4)
        ompi_run(universe, "ring", 2, args={"laps": 1})
        ompi_run(universe, "pi", 3, args={"samples_per_rank": 500})
        rows = ompi_ps(universe)
        assert {row["app"] for row in rows} == {"ring", "pi"}
        assert all(row["state"] == "finished" for row in rows)
