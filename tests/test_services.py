"""Tests for ompi-info and chained checkpoint/restart cycles."""

from repro.tools.api import ompi_restart, ompi_run
from repro.tools.info import collect_info, component_exists, render_info
from tests.conftest import make_universe


class TestInfo:
    def test_collect_covers_all_frameworks(self):
        infos = {info.name: info for info in collect_info()}
        assert set(infos) == {
            "btl", "coll", "crcp", "crs", "filem", "plm", "pml", "snapc",
        }
        assert "simcr" in infos["crs"].components
        assert "coord" in infos["crcp"].components

    def test_component_exists(self):
        assert component_exists("crs", "self")
        assert not component_exists("crs", "blcr2")
        assert not component_exists("nope", "x")

    def test_render_is_complete_text(self):
        text = render_info()
        for needle in (
            "crs: none, self, simcr",
            "pml_ob1_eager_limit",
            "orte_errmgr_autorecover",
        ):
            assert needle in text

    def test_documented_params_cover_real_defaults(self):
        """Every documented component name must actually exist."""
        from repro.tools.info import KNOWN_PARAMS

        for framework, params in KNOWN_PARAMS.items():
            forced = [p for p in params if p[0] == framework]
            assert forced, framework
            default = forced[0][1]
            for comp in default.split(","):
                assert component_exists(framework, comp), (framework, comp)


class TestChainedRestarts:
    def test_checkpoint_restart_checkpoint_restart(self):
        """Two full halt/restart cycles reproduce the baseline exactly —
        the restored state must itself be checkpointable."""
        args = {"loops": 60, "compute_s": 0.01, "msgs_per_loop": 2,
                "payload_bytes": 2048}
        base = ompi_run(make_universe(2), "churn", 2, args=args).results

        from repro.tools.api import checkpoint_ref, ompi_checkpoint

        universe = make_universe(2)
        job = ompi_run(universe, "churn", 2, args=args, wait=False)
        h1 = ompi_checkpoint(universe, job.jobid, at=0.15, terminate=True, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"

        # First restart; checkpoint-terminate it again further along.
        handle2 = ompi_restart(universe, checkpoint_ref(h1), wait=False)
        reply2 = handle2.wait_stepped()
        assert reply2["ok"]
        second = universe.job(reply2["jobid"])
        h2 = ompi_checkpoint(
            universe, second.jobid, at=universe.kernel.now + 0.25,
            terminate=True, wait=False,
        )
        universe.run_job_to_completion(second)
        assert second.state.value == "halted", h2.reply

        # Second restart runs to completion with baseline results.
        final = ompi_restart(universe, checkpoint_ref(h2))
        assert final.state.value == "finished"
        assert final.results == base

    def test_restarted_job_interval_numbering(self):
        """A restarted job numbers its own snapshots from 1 under its
        new jobid (fresh logical ordering, paper section 4)."""
        from repro.tools.api import checkpoint_ref, ompi_checkpoint

        universe = make_universe(2)
        args = {"loops": 80, "compute_s": 0.01}
        job = ompi_run(universe, "churn", 2, args=args, wait=False)
        h1 = ompi_checkpoint(universe, job.jobid, at=0.15, terminate=True, wait=False)
        universe.run_job_to_completion(job)
        handle = ompi_restart(universe, checkpoint_ref(h1), wait=False)
        reply = handle.wait_stepped()
        second = universe.job(reply["jobid"])
        h2 = ompi_checkpoint(
            universe, second.jobid, at=universe.kernel.now + 0.2, wait=False
        )
        universe.run_job_to_completion(second)
        assert h2.result()["ok"], h2.result()
        assert h2.result()["interval"] == 1
        assert f"ompi_global_snapshot_{second.jobid}.1" in h2.result()["snapshot"]
