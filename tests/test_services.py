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
        """Every selector's documented default names a real component,
        and every declared parameter's listed default reads back as the
        default its component uses."""
        from repro.mca.params import MCAParams
        from repro.orte.universe import declared_params

        for info in collect_info():
            forced = [p for p in info.params if p[0] == info.name]
            assert forced, info.name
            default = forced[0][1]
            for comp in default.split(","):
                assert component_exists(info.name, comp), (info.name, comp)
        for key, param in declared_params().items():
            assert param.read(MCAParams()) == param.default, key
            spelt = MCAParams({key: param.default_text})
            assert param.read(spelt) == param.default, key

    def test_each_selector_default_is_what_selection_opens(self):
        """A job run with no parameters opens, in every framework, the
        component ``ompi-info`` lists as the selector's default; the BTL
        default includes every component, as an unset include list does."""
        from repro.mca.params import MCAParams
        from repro.mca.registry import default_registry
        from repro.orte.universe import Universe
        from repro.simenv.cluster import Cluster, ClusterSpec

        registries = []

        def recording():
            registries.append(default_registry())
            return registries[-1]

        universe = Universe(Cluster(ClusterSpec(n_nodes=2)), MCAParams(), make_registry=recording)
        ompi_run(universe, "churn", 2, args={"loops": 2})
        opened: dict[str, set[str]] = {}
        for reg in registries:
            for fw in map(reg.framework, reg.framework_names):
                if fw.is_open:
                    opened.setdefault(fw.name, set()).add(fw.module.name)
        defaults = {info.name: info.params[0][1] for info in collect_info()}
        btl = defaults.pop("btl")
        assert opened == {name: {default} for name, default in defaults.items()}
        assert sorted(btl.split(",")) == default_registry().framework("btl").component_names


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
