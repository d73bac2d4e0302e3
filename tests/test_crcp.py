"""Tests of the CRCP framework: wrapper interposition, bookmark
counting, gating, and drain behaviour."""

import numpy as np

from repro.mca.params import MCAParams
from repro.tools.api import ompi_checkpoint, ompi_restart, ompi_run
from tests.conftest import make_universe
from tests.test_pml import define_app


class TestWrapperInterposition:
    def test_wrapper_installed_when_ft_enabled(self):
        universe = make_universe(2)
        seen = {}

        def main(ctx):
            seen["pml_type"] = type(ctx._runner.ompi.pml).__name__
            seen["crcp_name"] = ctx._runner.ompi.crcp.name
            yield ctx.compute(seconds=0.0)

        define_app("t_wrap1", main)
        ompi_run(universe, "t_wrap1", 1)
        assert seen["pml_type"] == "CRCPWrapperPML"
        assert seen["crcp_name"] == "coord"

    def test_no_wrapper_when_ft_disabled(self):
        universe = make_universe(2)
        seen = {}

        def main(ctx):
            seen["pml_type"] = type(ctx._runner.ompi.pml).__name__
            seen["crcp"] = ctx._runner.ompi.crcp
            yield ctx.compute(seconds=0.0)

        define_app("t_wrap2", main)
        ompi_run(universe, "t_wrap2", 1, params=MCAParams({"ompi_cr_enabled": "0"}))
        assert seen["pml_type"] == "Ob1PML"
        assert seen["crcp"] is None

    def test_passthrough_component_selectable(self):
        universe = make_universe(2)
        seen = {}

        def main(ctx):
            seen["crcp_name"] = ctx._runner.ompi.crcp.name
            if ctx.rank == 0:
                yield from ctx.send(1, 1, 1)
            else:
                yield from ctx.recv(0, 1)

        define_app("t_wrap3", main)
        job = ompi_run(universe, "t_wrap3", 2, params=MCAParams({"crcp": "none"}))
        assert job.state.value == "finished"
        assert seen["crcp_name"] == "none"

    def test_passthrough_refuses_checkpoint(self):
        universe = make_universe(2)

        def main(ctx):
            yield ctx.compute(seconds=0.2)

        define_app("t_wrap4", main)
        job = ompi_run(
            universe, "t_wrap4", 2, params=MCAParams({"crcp": "none"}), wait=False
        )
        handle = ompi_checkpoint(universe, job.jobid, at=0.05, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"  # unharmed (section 5.1)
        assert handle.result()["ok"] is False


class TestBookmarkCounting:
    def test_counts_match_traffic(self):
        universe = make_universe(2)
        counts = {}

        def main(ctx):
            crcp = ctx._runner.ompi.crcp
            if ctx.rank == 0:
                for _ in range(5):
                    yield from ctx.send("m", 1, 1)
                yield from ctx.barrier()
                counts["sent_by_0"] = dict(crcp.sent_count)
            else:
                yield from ctx.barrier()
                for _ in range(5):
                    yield from ctx.recv(0, 1)
                counts["recvd_by_1"] = dict(crcp.recvd_count)

        define_app("t_counts", main)
        ompi_run(universe, "t_counts", 2)
        # 5 app messages + barrier traffic toward peer 1
        assert counts["sent_by_0"][1] >= 5
        assert counts["recvd_by_1"][0] >= 5

    def test_counts_restored_after_restart(self):
        universe = make_universe(2)
        observed = []

        def main(ctx):
            crcp = ctx._runner.ompi.crcp
            for step in range(4):
                if ctx.rank == 0:
                    yield from ctx.send(step, 1, 1)
                else:
                    yield from ctx.recv(0, 1)
                yield from ctx.barrier()
                if step == 1 and ctx.rank == 0:
                    yield ctx.checkpoint(terminate=True)
            observed.append((ctx.rank, dict(crcp.sent_count), dict(crcp.recvd_count)))
            return "ok"

        define_app("t_counts_restart", main)
        job = ompi_run(universe, "t_counts_restart", 2, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"
        new_job = ompi_restart(universe, job.snapshots[-1])
        assert new_job.state.value == "finished"
        # Counts continued from the restored values: rank 0 sent 4 app
        # messages total across both lives.
        rank0 = next(o for o in observed if o[0] == 0)
        assert rank0[1][1] >= 4


class TestDrain:
    def test_inflight_burst_survives_checkpoint_restart(self):
        """Messages in flight at checkpoint time are drained into the
        receiver's image and delivered after restart."""
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                for i in range(20):
                    req = yield ctx.isend(np.full(10, i), 1, 7)
                    yield ctx.wait(req)
                result = yield ctx.checkpoint(terminate=True)
                assert result.get("restarted")  # only reached after restart
                return "sender done"
            # Receiver sleeps so the burst is unconsumed at checkpoint.
            yield ctx.compute(seconds=0.5)
            total = 0
            for _ in range(20):
                payload, _ = yield from ctx.recv(0, 7)
                total += int(payload[0])
            return total

        define_app("t_drain", main)
        job = ompi_run(universe, "t_drain", 2, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"
        new_job = ompi_restart(universe, job.snapshots[-1])
        assert new_job.state.value == "finished"
        assert new_job.results[1] == sum(range(20))

    def test_large_rendezvous_drained(self):
        """A rendezvous transfer whose RTS is unmatched at checkpoint
        time must be pulled in by the drain (forced CTS)."""
        universe = make_universe(2)

        def main(ctx):
            big = np.arange(100_000, dtype=np.int64)
            if ctx.rank == 0:
                # Checkpoint while the RTS is outstanding and unmatched:
                # the drain must force a CTS and pull the payload in.
                req = yield ctx.isend(big, 1, 9)
                result = yield ctx.checkpoint(terminate=True)
                assert result.get("restarted")
                yield ctx.wait(req)
                return "sent"
            yield ctx.compute(seconds=0.5)  # has not posted the recv yet
            payload, _ = yield from ctx.recv(0, 9)
            return int(payload.sum())

        define_app("t_drain_rndv", main)
        job = ompi_run(universe, "t_drain_rndv", 2, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"
        new_job = ompi_restart(universe, job.snapshots[-1])
        assert new_job.state.value == "finished"
        expected = int(np.arange(100_000, dtype=np.int64).sum())
        assert new_job.results[1] == expected

    def test_fabric_empty_after_coordination(self):
        """The data fabrics must hold no in-flight MPI traffic at
        capture time (the drain invariant)."""
        universe = make_universe(2)
        snapshot_state = {}

        def main(ctx):
            if ctx.rank == 0:
                for i in range(10):
                    yield from ctx.send(i, 1, 3)
                result = yield ctx.checkpoint()
                snapshot_state["ok"] = result["ok"]
            else:
                yield ctx.compute(seconds=0.3)
                for _ in range(10):
                    yield from ctx.recv(0, 3)

        define_app("t_drain_inv", main)
        job = ompi_run(universe, "t_drain_inv", 2)
        assert job.state.value == "finished"
        assert snapshot_state["ok"]


class TestTwoPhaseProtocol:
    """The alternative coordination protocol must pass the same
    scenarios as ``coord`` — the constant-environment comparison the
    framework exists for."""

    PARAMS = {"crcp": "twophase"}

    def test_selected_by_parameter(self):
        universe = make_universe(2, params=self.PARAMS)
        seen = {}

        def main(ctx):
            seen["crcp"] = ctx._runner.ompi.crcp.name
            yield ctx.compute(seconds=0.0)

        define_app("t_tp_sel", main)
        ompi_run(universe, "t_tp_sel", 1)
        assert seen["crcp"] == "twophase"

    def test_checkpoint_continue_exact(self):
        args = {"loops": 60, "compute_s": 0.01, "msgs_per_loop": 2}
        base = ompi_run(make_universe(2), "churn", 2, args=args).results
        universe = make_universe(2, params=self.PARAMS)
        job = ompi_run(universe, "churn", 2, args=args, wait=False)
        handle = ompi_checkpoint(universe, job.jobid, at=0.15, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "finished"
        assert handle.result()["ok"], handle.result()
        assert job.results == base

    def test_rendezvous_drain_and_restart(self):
        universe = make_universe(2, params=self.PARAMS)

        def main(ctx):
            big = np.arange(100_000, dtype=np.int64)
            if ctx.rank == 0:
                req = yield ctx.isend(big, 1, 9)
                result = yield ctx.checkpoint(terminate=True)
                assert result.get("restarted")
                yield ctx.wait(req)
                return "sent"
            yield ctx.compute(seconds=0.5)
            payload, _ = yield from ctx.recv(0, 9)
            return int(payload.sum())

        define_app("t_tp_drain", main)
        job = ompi_run(universe, "t_tp_drain", 2, wait=False)
        universe.run_job_to_completion(job)
        assert job.state.value == "halted"
        new_job = ompi_restart(universe, job.snapshots[-1])
        assert new_job.state.value == "finished"
        expected = int(np.arange(100_000, dtype=np.int64).sum())
        assert new_job.results[1] == expected

    def test_abort_on_racing_finalize(self):
        universe = make_universe(2, params=self.PARAMS)

        def main(ctx):
            if ctx.rank == 0:
                yield ctx.compute(seconds=0.2)
                result = yield ctx.checkpoint(allow_fail=True)
                return result["ok"]
            yield ctx.compute(seconds=0.19999)
            return "early"

        define_app("t_tp_race", main)
        job = ompi_run(universe, "t_tp_race", 2)
        assert job.state.value == "finished"

    def test_multiple_rounds_recorded(self):
        universe = make_universe(4, params=self.PARAMS)
        stats = {}

        def main(ctx):
            if ctx.rank == 0:
                for _ in range(5):
                    yield from ctx.send("m", 1, 1)
                result = yield ctx.checkpoint()
                assert result["ok"]
                stats.update(ctx._runner.ompi.crcp.stats)
            else:
                yield ctx.compute(seconds=0.3)
                if ctx.rank == 1:
                    for _ in range(5):
                        yield from ctx.recv(0, 1)

        define_app("t_tp_rounds", main)
        job = ompi_run(universe, "t_tp_rounds", 4)
        assert job.state.value == "finished"
        assert stats["coordinations"] == 1
        assert stats["rounds"] >= 2  # settle needs two stable rounds


class TestGate:
    def test_sends_blocked_during_checkpoint_then_resume(self):
        """New sends initiated during a checkpoint wait for CONTINUE."""
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                # Interleave sends with a checkpoint; all must arrive.
                for i in range(3):
                    yield from ctx.send(i, 1, 2)
                result = yield ctx.checkpoint()
                assert result["ok"]
                for i in range(3, 6):
                    yield from ctx.send(i, 1, 2)
                return "done"
            got = []
            for _ in range(6):
                payload, _ = yield from ctx.recv(0, 2)
                got.append(payload)
            return got

        define_app("t_gate", main)
        job = ompi_run(universe, "t_gate", 2)
        assert job.state.value == "finished"
        assert job.results[1] == list(range(6))
