"""Integration tests of the full checkpoint/restart life cycle —
the paper's system end to end."""

import pytest

from repro.mca.params import MCAParams
from repro.snapshot import GlobalSnapshotRef, read_global_meta
from repro.tools.api import (
    checkpoint_ref,
    ompi_checkpoint,
    ompi_ps,
    ompi_restart,
    ompi_run,
)
from repro.util.errors import CheckpointError, RestartError
from tests.conftest import make_universe, run_gen
from tests.test_pml import define_app

#: ends at 0.333 sim-s undisturbed, so every checkpoint (0.04-0.08 s)
#: and crash (0.1-0.25 s) instant below lands mid-run
JACOBI = {"n_global": 256, "iters": 500, "iter_compute_s": 6e-4}
#: the same on two ranks (0.333 sim-s)
JACOBI2 = {"n_global": 128, "iters": 500, "iter_compute_s": 6e-4}


def baseline_jacobi():
    universe = make_universe(4)
    job = ompi_run(universe, "jacobi", 4, args=JACOBI)
    assert job.state.value == "finished"
    return job.results


@pytest.fixture(scope="module")
def jacobi_baseline():
    return baseline_jacobi()


class TestCheckpointContinue:
    def test_async_checkpoint_does_not_perturb_results(self, jacobi_baseline):
        universe = make_universe(4)
        job = ompi_run(universe, "jacobi", 4, args=JACOBI, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.08, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"
        assert handle.result()["ok"]
        assert job.results == jacobi_baseline

    def test_snapshot_reference_structure(self):
        universe = make_universe(4)
        job = ompi_run(universe, "jacobi", 4, args=JACOBI, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.05, wait=False)
        universe.run_job_to_completion(job)
        ref = checkpoint_ref(handle)
        stable = universe.cluster.stable_fs
        # Global metadata + one local snapshot dir per rank (section 4).
        assert stable.exists(ref.meta_path)
        for rank in range(4):
            assert stable.exists(f"{ref.local_dir(rank)}/metadata.json")
            assert stable.exists(f"{ref.local_dir(rank)}/image.pkl")

    def test_global_metadata_contents(self):
        universe = make_universe(4)
        job = ompi_run(universe, "jacobi", 4, args=JACOBI, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.05, wait=False)
        universe.run_job_to_completion(job)
        ref = checkpoint_ref(handle)

        def read():
            meta = yield from read_global_meta(universe.cluster.stable_fs, ref)
            return meta

        meta = run_gen(universe.kernel, read())
        assert meta.app_name == "jacobi"
        assert meta.app_args == JACOBI
        assert meta.n_procs == 4
        assert meta.interval == 1
        assert set(meta.locals) == {0, 1, 2, 3}
        assert all(entry["crs"] == "simcr" for entry in meta.locals.values())

    def test_multiple_intervals_numbered(self):
        universe = make_universe(4)
        # short jacobi: 0.64 sim-s, so both instants land mid-run
        args = {"n_global": 256, "iters": 1000, "iter_compute_s": 6e-4}
        job = ompi_run(universe, "jacobi", 4, args=args, wait=False)
        h1 = ompi_checkpoint(universe, job.jobid, at=0.05, wait=False)
        h2 = ompi_checkpoint(universe, job.jobid, at=0.30, wait=False)
        universe.run_job_to_completion(job)
        assert h1.result()["interval"] == 1
        assert h2.result()["interval"] == 2
        assert len(job.snapshots) == 2
        assert job.snapshots[0].path != job.snapshots[1].path

    def test_staged_local_snapshots_cleaned_after_gather(self):
        universe = make_universe(2)
        job = ompi_run(universe, "jacobi", 2, args=JACOBI2, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.05, wait=False)
        universe.run_job_to_completion(job)
        assert len(job.snapshots) == 1  # an interval was staged
        for node in universe.cluster.nodes:
            assert node.local_fs.list_tree("/ckpt") == []


class TestCheckpointTerminate:
    def test_halt_and_restart_matches_baseline(self, jacobi_baseline):
        universe = make_universe(4)
        job = ompi_run(universe, "jacobi", 4, args=JACOBI, wait=False)
        handle = ompi_checkpoint(
            universe, job.jobid, at=0.08, terminate=True, wait=False
        )
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"
        new_job = ompi_restart(universe, checkpoint_ref(handle))
        assert new_job.state.value == "finished"
        assert new_job.results == jacobi_baseline

    def test_restart_allocates_new_jobid(self):
        universe = make_universe(2)
        job = ompi_run(universe, "jacobi", 2, args=JACOBI2, wait=False)
        handle = ompi_checkpoint(
            universe, job.jobid, at=0.05, terminate=True, wait=False
        )
        universe.run_job_to_completion(job)
        new_job = ompi_restart(universe, checkpoint_ref(handle))
        assert new_job.jobid != job.jobid
        assert new_job.restarted_from is not None

    def test_restart_preserves_mca_params(self):
        """Restart must not require the user to remember the original
        runtime parameters (paper section 4)."""
        universe = make_universe(2)
        params = MCAParams({"pml_ob1_eager_limit": "1234", "coll_basic_bcast_algorithm": "linear"})
        job = ompi_run(
            universe,
            "jacobi",
            2,
            args=JACOBI2,
            params=params,
            wait=False,
        )
        handle = ompi_checkpoint(universe, job.jobid, at=0.05, terminate=True, wait=False)
        universe.run_job_to_completion(job)
        new_job = ompi_restart(universe, checkpoint_ref(handle))
        assert new_job.params.get("pml_ob1_eager_limit") == "1234"
        assert new_job.params.get("coll_basic_bcast_algorithm") == "linear"


class TestRestartTopologies:
    def test_restart_after_node_crash_relocates_ranks(self, jacobi_baseline):
        universe = make_universe(4)
        job = ompi_run(universe, "jacobi", 4, args=JACOBI, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.04, wait=False)
        universe.cluster.failures.crash_node_at(0.15, "node02")
        universe.run_job_to_completion(job)
        assert job.state.value == "failed"
        new_job = ompi_restart(universe, checkpoint_ref(handle))
        assert new_job.state.value == "finished"
        assert new_job.results == jacobi_baseline
        assert new_job.placements[2] != "node02"

    def test_restart_all_on_one_node(self, jacobi_baseline):
        universe = make_universe(4)
        job = ompi_run(universe, "jacobi", 4, args=JACOBI, wait=False)
        handle = ompi_checkpoint(
            universe, job.jobid, at=0.08, terminate=True, wait=False
        )
        universe.run_job_to_completion(job)
        ref = checkpoint_ref(handle)
        for name in ("node01", "node02", "node03"):
            universe.cluster.failures.crash_node_now(name)
        new_job = ompi_restart(universe, ref)
        assert new_job.state.value == "finished"
        assert set(new_job.placements.values()) == {"node00"}
        assert new_job.results == jacobi_baseline

    def test_restart_unknown_snapshot_fails_cleanly(self):
        universe = make_universe(2)
        with pytest.raises(RestartError):
            ompi_restart(universe, GlobalSnapshotRef("/snapshots/ghost"))


class TestVetoRule:
    def test_crs_none_vetoes_whole_request(self):
        universe = make_universe(2, params={"crs": "none", "ompi_cr_enabled": "0"})
        job = ompi_run(universe, "jacobi", 2, args=JACOBI2, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.05, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"  # no process affected
        reply = handle.result()
        assert reply["ok"] is False
        assert "not checkpointable" in reply["error"]

    def test_unknown_job_rejected(self):
        universe = make_universe(2)
        with pytest.raises(CheckpointError):
            ompi_checkpoint(universe, 999)

    def test_finished_job_rejected(self):
        universe = make_universe(2)
        job = ompi_run(universe, "ring", 2, args={"laps": 1})
        with pytest.raises(CheckpointError, match="finished"):
            ompi_checkpoint(universe, job.jobid)

    def test_racing_finalize_aborts_cleanly(self):
        """A checkpoint racing a rank's MPI_FINALIZE must fail without
        hanging the remaining ranks (coordination abort path)."""
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                yield ctx.compute(seconds=0.2)
                result = yield ctx.checkpoint(allow_fail=True)
                return result["ok"]
            # rank 1 finishes almost immediately
            yield ctx.compute(seconds=0.19999)
            return "early"

        define_app("t_race_fin", main)
        job = ompi_run(universe, "t_race_fin", 2)
        assert job.state.value == "finished"


class TestAutorecovery:
    def test_node_crash_triggers_recovery(self):
        universe = make_universe(4, params={"orte_errmgr_autorecover": "1"})
        expected = ompi_run(make_universe(4), "jacobi", 4, args=JACOBI).results
        job = ompi_run(universe, "jacobi", 4, args=JACOBI, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.04, wait=False)
        universe.cluster.failures.crash_node_at(0.25, "node03")
        universe.run_job_to_completion(job)
        assert job.state.value == "failed"
        assert universe.hnp.errmgr.recoveries
        recovered = universe.job(universe.hnp.errmgr.recoveries[0][1])
        universe.run_job_to_completion(recovered)
        assert recovered.state.value == "finished"
        assert recovered.results == expected

    def test_no_recovery_without_snapshot(self):
        universe = make_universe(4, params={"orte_errmgr_autorecover": "1"})
        job = ompi_run(universe, "jacobi", 4, args=JACOBI, wait=False)
        universe.cluster.failures.crash_node_at(0.1, "node01")
        universe.run_job_to_completion(job)
        assert job.state.value == "failed"
        assert universe.hnp.errmgr.recoveries == []

    def test_no_recovery_when_disabled(self):
        universe = make_universe(4)
        job = ompi_run(universe, "jacobi", 4, args=JACOBI, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.04, wait=False)
        universe.cluster.failures.crash_node_at(0.25, "node03")
        universe.run_job_to_completion(job)
        assert job.state.value == "failed"
        assert universe.hnp.errmgr.recoveries == []


class TestSynchronousAPI:
    def test_app_requested_checkpoint(self):
        universe = make_universe(4)
        job = ompi_run(
            universe, "ring", 4, args={"laps": 6, "checkpoint_at_lap": 2}
        )
        assert job.state.value == "finished"
        assert len(job.snapshots) == 1

    def test_restart_resumes_out_of_checkpoint_call(self):
        """The synchronous checkpoint call returns (with restarted=True)
        in the restarted process instead of re-requesting."""
        universe = make_universe(2)
        observed = []

        def main(ctx):
            yield ctx.compute(seconds=0.001)
            yield from ctx.barrier()
            if ctx.rank == 0:
                result = yield ctx.checkpoint(terminate=True)
                observed.append(result)
            yield from ctx.barrier()
            return "completed"

        define_app("t_sync_restart", main)
        job = ompi_run(universe, "t_sync_restart", 2, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"
        new_job = ompi_restart(universe, job.snapshots[-1])
        assert new_job.state.value == "finished"
        assert all(v == "completed" for v in new_job.results.values())
        assert observed[-1]["restarted"] is True


class TestRestartINCOrdering:
    def test_figure2_traversal_on_restart(self):
        """INC(RESTART) in the restarted process must traverse the full
        stack in Figure-2 order, including a re-registered app INC."""
        from repro.core.ft_event import FTState

        traces = {}

        def main(ctx):
            stack = ctx._runner.opal.inc_stack
            stack.record_trace = True

            def app_inc(state, down):
                result = yield from down(state)
                return result

            ctx.register_inc(app_inc)
            yield ctx.compute(seconds=0.002)
            yield from ctx.barrier()
            if ctx.rank == 0:
                yield ctx.checkpoint(terminate=True)
            yield from ctx.barrier()
            traces[ctx.rank] = list(stack.trace)
            return "done"

        define_app("t_restart_inc", main)
        universe = make_universe(2)
        job = ompi_run(universe, "t_restart_inc", 2, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"
        traces.clear()
        new_job = ompi_restart(universe, job.snapshots[-1])
        assert new_job.state.value == "finished"
        restart_steps = [
            (layer, step)
            for layer, step, state in traces[0]
            if state == FTState.RESTART
        ]
        assert restart_steps == [
            ("app", "enter"),
            ("ompi", "enter"),
            ("orte", "enter"),
            ("opal", "enter"),
            ("opal", "exit"),
            ("orte", "exit"),
            ("ompi", "exit"),
            ("app", "exit"),
        ]


class TestSelfCRS:
    def test_self_checkpoint_restart_cycle(self):
        universe = make_universe(2, params={"crs": "self"})
        calls = {"continue": 0}

        def main(ctx):
            state = {"phase": 0, "acc": 0}
            if ctx.restored_state is not None:
                state = dict(ctx.restored_state)
            ctx.register_self_callbacks(
                checkpoint=lambda: dict(state),
                continue_=lambda: calls.__setitem__("continue", calls["continue"] + 1),
            )
            while state["phase"] < 6:
                yield ctx.compute(seconds=0.002)
                state["acc"] += state["phase"]
                state["phase"] += 1
                total = yield from ctx.allreduce(state["acc"])
                state["total"] = total
                if state["phase"] == 3 and ctx.rank == 0:
                    yield ctx.checkpoint(terminate=True)
            return state

        define_app("t_self_cycle", main)
        job = ompi_run(universe, "t_self_cycle", 2, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"
        new_job = ompi_restart(universe, job.snapshots[-1])
        assert new_job.state.value == "finished"
        # 0+1+2+3+4+5 = 15 per rank; allreduce doubles it.
        assert all(r["acc"] == 15 for r in new_job.results.values())
        assert all(r["total"] == 30 for r in new_job.results.values())

    def test_self_without_callback_vetoed(self):
        universe = make_universe(2, params={"crs": "self"})

        def main(ctx):
            # never registers a checkpoint callback
            yield ctx.compute(seconds=0.3)
            return "done"

        define_app("t_self_nocb", main)
        job = ompi_run(universe, "t_self_nocb", 2, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.1, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"
        assert handle.result()["ok"] is False


class TestToolVisibility:
    def test_ps_shows_snapshots_and_states(self):
        universe = make_universe(2)
        job = ompi_run(universe, "jacobi", 2, args=JACOBI2, wait=False)
        ompi_checkpoint(universe, job.jobid, at=0.05, wait=False)
        universe.run_job_to_completion(job)
        rows = ompi_ps(universe)
        row = next(r for r in rows if r["jobid"] == job.jobid)
        assert row["state"] == "finished"
        assert len(row["snapshots"]) == 1
        assert row["app"] == "jacobi"
