"""Heterogeneous-cluster restart gating (paper section 4) and the
command-line tool entry points."""

import ast
import pathlib
import re
from collections import Counter

import pytest

import repro
from repro.mca.params import MCAParams
from repro.mca.registry import default_registry
from repro.orte.universe import DECLARING_MODULES, Universe, declared_params
from repro.simenv.cluster import Cluster, ClusterSpec
from repro.tools import cli
from repro.tools.api import (
    checkpoint_ref,
    ompi_checkpoint,
    ompi_ps,
    ompi_restart,
    ompi_run,
)
from repro.tools.info import render_info
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


def _declarations():
    """``(module, name, key)`` of every module-level ``NAME = Param(...)``
    in ``src/repro``, and every module's parsed tree."""
    src = pathlib.Path(repro.__file__).parent
    trees = {path.relative_to(src).as_posix(): ast.parse(path.read_text()) for path in src.rglob("*.py")}
    found = [
        (module, node.targets[0].id, node.value.args[0].value)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "Param"
    ]
    return found, trees


def test_every_read_mca_param_is_listed():
    """Each MCA parameter is declared once, in the module that reads it,
    and read only through its declaration: no read names a key directly
    (so none reads an undeclared one), every declaration is read, and
    ``ompi-info`` lists exactly the declarations and the selectors."""
    found, trees = _declarations()
    keys = [key for _, _, key in found]
    assert len(keys) == len(set(keys)) and set(keys) == set(declared_params())
    modules = {"repro." + module[:-3].replace("/", ".") for module, _, _ in found}
    assert modules == set(DECLARING_MODULES)
    # a key is written once outside the places that set it (presets'
    # dict keys, ``setdefault``): in its declaration, with its default
    settings = {
        id(part) for tree in trees.values() for node in ast.walk(tree)
        for part in (
            node.keys if isinstance(node, ast.Dict) else node.args[:1]
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault"
            else ()
        )
    }
    literals = Counter(
        node.value for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in settings
    )
    assert {key: literals[key] for key in keys} == {key: 1 for key in keys}
    direct = [
        (module, ast.unparse(node))
        for module, tree in trees.items() if module != "mca/params.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("get", "get_int", "get_float", "get_bool", "get_list")
        and "params" in ast.unparse(node.func.value)
        and node.args and isinstance(node.args[0], ast.Constant)
        or isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
        and "params" in ast.unparse(node.comparators[0])
    ]
    assert direct == []
    unread = [
        (module, name) for module, name, _ in found
        if not any(
            isinstance(node, ast.Attribute) and node.attr == "read"
            and getattr(node.value, "id", None) == name
            for node in ast.walk(trees[module])
        )
    ]
    assert unread == []
    listing = render_info()
    listed = re.findall(r"^      (\w+) \(default ", listing, re.M)
    assert sorted(listed) == sorted([*keys, *default_registry().framework_names])
    assert len(listed) == 30


@pytest.mark.parametrize("where", ["universe", "submit"])
def test_an_unknown_mca_key_is_refused(where):
    """A key no component declares and no framework selects by is an
    error naming it, not a silent passenger in snapshot metadata."""
    typo = {"pml_ob1_eagr_limit": "1024"}
    with pytest.raises(ValueError, match="pml_ob1_eagr_limit"):
        if where == "universe":
            make_universe(2, params=typo)
        else:
            ompi_run(make_universe(2), "churn", 2, params=MCAParams(typo))
    # the declared key and a selector go through
    ompi_run(
        make_universe(2), "churn", 2, args={"loops": 2},
        params=MCAParams({"pml_ob1_eager_limit": "1024", "crs": "simcr"}),
    )
