"""Heterogeneous-cluster restart gating (paper section 4) and the
command-line tool entry points."""

import pathlib
import re

import pytest

import repro
from repro.mca.params import MCAParams
from repro.orte.universe import Universe
from repro.simenv.cluster import Cluster, ClusterSpec
from repro.tools import cli
from repro.tools.api import (
    checkpoint_ref,
    ompi_checkpoint,
    ompi_ps,
    ompi_restart,
    ompi_run,
)
from repro.tools.info import BASE_PARAMS, KNOWN_PARAMS, render_info
from repro.util.errors import RestartError
from tests.conftest import make_universe

JARGS = {"n_global": 128, "iters": 60000}


def hetero_universe(params=None):
    """Mixed-OS cluster; node00 hosts the HNP and is never crashed
    (mpirun failure is out of the paper's scope).  node01 is the only
    solaris machine, so killing it strands non-portable images."""
    spec = ClusterSpec(
        n_nodes=4,
        os_tags=["linux-x86_64", "solaris-sparc", "bsd-ppc64", "bsd-ppc64"],
    )
    return Universe(Cluster(spec), MCAParams(params or {}))


class TestHeterogeneousRestart:
    def _halt_with_snapshot(self, universe, np=2):
        job = ompi_run(universe, "jacobi", np, args=JARGS, wait=False)
        handle = ompi_checkpoint(
            universe, job.jobid, at=0.05, terminate=True, wait=False
        )
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"
        return checkpoint_ref(handle)

    def test_heterogeneous_job_checkpoints(self):
        """Ranks on different OSes aggregate into one global snapshot
        (the snapshot-reference abstraction hides the difference)."""
        universe = hetero_universe()
        job = ompi_run(universe, "jacobi", 4, args=JARGS, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.05, wait=False)
        universe.run_job_to_completion(job)
        assert handle.result()["ok"]

    def test_portable_images_cross_os(self):
        universe = hetero_universe()
        ref = self._halt_with_snapshot(universe)
        # Kill rank 1's origin (the only solaris box); portable images
        # restart on any surviving node.
        universe.cluster.failures.crash_node_now("node01")
        new_job = ompi_restart(universe, ref)
        assert new_job.state.value == "finished"
        assert new_job.placements[1] != "node01"

    def test_nonportable_images_gated_by_os_tag(self):
        universe = hetero_universe(params={"crs_simcr_portable": "0"})
        ref = self._halt_with_snapshot(universe)
        universe.cluster.failures.crash_node_now("node01")
        # rank 1's solaris image has no compatible machine left.
        with pytest.raises(RestartError, match="no compatible"):
            ompi_restart(universe, ref)

    def test_nonportable_images_restart_on_matching_os(self):
        universe = hetero_universe(params={"crs_simcr_portable": "0"})
        ref = self._halt_with_snapshot(universe)
        # Origin nodes still up: restart in place works.
        new_job = ompi_restart(universe, ref)
        assert new_job.state.value == "finished"
        assert set(new_job.placements.values()) == {"node00", "node01"}

    def test_local_meta_records_os_tag(self):
        universe = hetero_universe()
        ref = self._halt_with_snapshot(universe, np=4)
        from repro.snapshot import read_global_meta
        from tests.conftest import run_gen

        def read():
            meta = yield from read_global_meta(universe.cluster.stable_fs, ref)
            return meta

        meta = run_gen(universe.kernel, read())
        tags = {entry["os_tag"] for entry in meta.locals.values()}
        assert tags == {"linux-x86_64", "solaris-sparc", "bsd-ppc64"}


class TestToolAPI:
    def test_tool_process_is_cleaned_up(self):
        universe = make_universe(2)
        ompi_run(universe, "ring", 2, args={"laps": 1})
        before = len(universe.directory)
        ompi_ps(universe)
        assert len(universe.directory) == before  # tool deregistered

    def test_checkpoint_wait_semantics(self):
        universe = make_universe(2)
        job = ompi_run(universe, "jacobi", 2, args=JARGS, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.05, wait=True)
        assert handle.result()["ok"]
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"

    def test_restart_nowait_returns_handle(self):
        universe = make_universe(2)
        job = ompi_run(universe, "jacobi", 2, args=JARGS, wait=False)
        h = ompi_checkpoint(universe, job.jobid, at=0.05, terminate=True, wait=False)
        universe.run_job_to_completion(job)
        handle = ompi_restart(universe, checkpoint_ref(h), wait=False)
        reply = handle.wait()
        assert reply["ok"]
        new_job = universe.job(reply["jobid"])
        universe.run_job_to_completion(new_job)
        assert new_job.state.value == "finished"


class TestCLI:
    def test_main_run(self, capsys):
        assert cli.main_run(["--app", "ring", "--np", "2", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "finished" in out

    def test_main_ps(self, capsys):
        assert cli.main_ps(["--app", "ring", "--np", "2", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "ring" in out

    def test_main_checkpoint(self, capsys):
        assert cli.main_checkpoint(["--np", "2", "--nodes", "2", "--at", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "global snapshot reference" in out

    def test_main_restart(self, capsys):
        assert cli.main_restart(["--np", "2", "--nodes", "2", "--at", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "restarted as job" in out

    def test_main_info(self, capsys):
        assert cli.main_info([]) == 0
        out = capsys.readouterr().out
        assert "crcp: coord, none" in out

    def test_main_migrate(self, capsys):
        assert cli.main_migrate(["--np", "4", "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "migrated to job" in out


def test_every_read_mca_param_is_listed():
    """``ompi-info`` documents exactly the MCA parameters the code reads:
    none unlisted, and none listed that nothing reads (a framework's
    own name, the component selector, is read by the framework)."""
    read_site = re.compile(
        r'params\.get\w*\(\s*"([a-z]+_\w+)"|"([a-z]+_\w+)" in self\.params'
    )
    src = pathlib.Path(repro.__file__).parent
    read = {
        name
        for path in src.rglob("*.py")
        for pair in read_site.findall(path.read_text())
        for name in pair
        if name
    }
    listing = render_info()
    unlisted = sorted(n for n in read if f" {n} (default " not in listing)
    assert unlisted == []
    listed = {key for key, _, _ in BASE_PARAMS} | {
        key for params in KNOWN_PARAMS.values() for key, _, _ in params
    }
    assert listed - set(KNOWN_PARAMS) == read
