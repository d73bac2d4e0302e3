"""Tests of the shipped workloads and the application kit."""

import pytest

from repro.apps.registry import get_app, has_app, registered_apps
from repro.tools.api import ompi_restart, ompi_run
from repro.util.errors import RestartError
from tests.conftest import make_universe
from tests.test_pml import define_app


class TestRegistry:
    def test_shipped_apps_registered(self):
        for name in ("ring", "pi", "jacobi", "master_worker", "netpipe"):
            assert has_app(name)
            assert name in registered_apps()

    def test_unknown_app_raises(self):
        with pytest.raises(RestartError):
            get_app("no-such-app")


class TestRing:
    @pytest.mark.parametrize("np_procs", [1, 2, 4, 7])
    def test_token_makes_laps(self, np_procs):
        universe = make_universe(4)
        job = ompi_run(universe, "ring", np_procs, args={"laps": 2})
        assert job.state.value == "finished"
        if np_procs > 1:
            assert all(
                job.results[r]["hops"] == 2 * np_procs for r in range(np_procs)
            )

    def test_payload_size_respected(self):
        universe = make_universe(2)
        job = ompi_run(universe, "ring", 2, args={"laps": 1, "payload_bytes": 4096})
        assert job.state.value == "finished"


class TestPi:
    def test_estimate_converges(self):
        universe = make_universe(4)
        job = ompi_run(universe, "pi", 4, args={"samples_per_rank": 20000})
        estimate = job.results[0]["pi"]
        assert abs(estimate - 3.14159) < 0.05

    def test_all_ranks_agree(self):
        universe = make_universe(4)
        job = ompi_run(universe, "pi", 3, args={"samples_per_rank": 3000})
        values = {r["pi"] for r in job.results.values()}
        assert len(values) == 1

    def test_deterministic_across_universes(self):
        results = []
        for _ in range(2):
            universe = make_universe(4)
            job = ompi_run(universe, "pi", 4, args={"samples_per_rank": 5000})
            results.append(job.results[0]["pi"])
        assert results[0] == results[1]


class TestJacobi:
    def test_residual_decreases(self):
        universe = make_universe(4)
        short = ompi_run(universe, "jacobi", 4, args={"n_global": 128, "iters": 10})
        long = ompi_run(universe, "jacobi", 4, args={"n_global": 128, "iters": 200})
        assert long.results[0]["residual"] < short.results[0]["residual"]

    def test_checksum_independent_of_np(self):
        sums = []
        for np_procs in (1, 2, 4):
            universe = make_universe(4)
            job = ompi_run(
                universe, "jacobi", np_procs, args={"n_global": 64, "iters": 50}
            )
            sums.append(round(job.results[0]["checksum"], 9))
        assert len(set(sums)) == 1

    def test_early_stop_on_tolerance(self):
        universe = make_universe(2)
        job = ompi_run(
            universe,
            "jacobi",
            2,
            args={"n_global": 64, "iters": 100000, "tol": 1e-3},
        )
        assert job.results[0]["iters"] < 100000

    def test_sync_checkpoint_mid_solve(self):
        """Rank 0's in-app checkpoints leave the solve untouched, each
        one restarts to the uninterrupted results, and the per-iteration
        compute override moves simulated time only."""
        args = {"n_global": 128, "iters": 60, "iter_compute_s": 0.002}
        base = ompi_run(make_universe(4), "jacobi", 4, args=args)
        assert base.results == ompi_run(
            make_universe(4), "jacobi", 4, args={"n_global": 128, "iters": 60}
        ).results
        universe = make_universe(4)
        job = ompi_run(universe, "jacobi", 4, args=dict(args, checkpoint_every=20))
        assert universe.kernel.now >= 60 * 0.002
        assert job.state.value == "finished"
        assert len(job.snapshots) == 2  # after iterations 20 and 40
        assert job.results == base.results
        for ref in job.snapshots:
            assert ompi_restart(universe, ref).results == base.results


class TestMasterWorker:
    @pytest.mark.parametrize("np_procs", [1, 2, 4])
    def test_all_tasks_done(self, np_procs):
        universe = make_universe(4)
        job = ompi_run(universe, "master_worker", np_procs, args={"n_tasks": 12})
        assert job.results[0]["tasks_done"] == 12
        assert job.results[0]["total"] == sum(t * t for t in range(12))

    def test_work_spread_across_workers(self):
        universe = make_universe(4)
        job = ompi_run(
            universe,
            "master_worker",
            4,
            args={"n_tasks": 30, "task_seconds": 1e-3},
        )
        worker_counts = [job.results[r]["tasks_done"] for r in (1, 2, 3)]
        assert sum(worker_counts) == 30
        assert all(count > 0 for count in worker_counts)


class TestNetpipe:
    def test_latency_increases_with_size(self):
        universe = make_universe(2)
        job = ompi_run(
            universe,
            "netpipe",
            2,
            args={"sizes": [64, 65536, 1 << 20], "reps_per_size": 3},
        )
        series = job.results[0]["series"]
        latencies = [lat for _size, lat, _bw in series]
        assert latencies == sorted(latencies)

    def test_bandwidth_approaches_link_rate(self):
        universe = make_universe(2)
        job = ompi_run(
            universe, "netpipe", 2, args={"sizes": [1 << 22], "reps_per_size": 2}
        )
        _size, _lat, bandwidth = job.results[0]["series"][0]
        ib_rate = universe.cluster.fabric("ib").model.bandwidth_Bps
        assert bandwidth > 0.4 * ib_rate

    def test_needs_two_ranks(self):
        universe = make_universe(2)
        job = ompi_run(universe, "netpipe", 1)
        assert job.state.value == "failed"


class TestAppContext:
    def test_rng_keyed_by_app_and_rank(self):
        def main(ctx):
            yield ctx.compute(seconds=0.0)
            return ctx.rng.uniform()

        define_app("t_rng", main)
        universe = make_universe(2)
        job = ompi_run(universe, "t_rng", 2)
        assert job.results[0] != job.results[1]
        universe2 = make_universe(2)
        job2 = ompi_run(universe2, "t_rng", 2)
        assert job2.results[0] == job.results[0]

    def test_sendrecv(self):
        def main(ctx):
            partner = (ctx.rank + 1) % ctx.size
            got, status = yield from ctx.sendrecv(ctx.rank, partner, src=ctx.ANY_SOURCE)
            return (got, status.source)

        define_app("t_sendrecv", main)
        universe = make_universe(2)
        job = ompi_run(universe, "t_sendrecv", 2)
        assert job.results[0] == (1, 1)
        assert job.results[1] == (0, 0)

    def test_now_monotonic(self):
        def main(ctx):
            t1 = yield ctx.now()
            yield ctx.compute(seconds=0.01)
            t2 = yield ctx.now()
            return t2 - t1

        define_app("t_now", main)
        universe = make_universe(1)
        job = ompi_run(universe, "t_now", 1)
        assert job.results[0] == pytest.approx(0.01)

    def test_compute_work_units_scale_with_cpu(self):
        def main(ctx):
            t1 = yield ctx.now()
            yield ctx.compute(work=4.0)  # 4 Gcycles
            t2 = yield ctx.now()
            return t2 - t1

        define_app("t_work", main)
        universe = make_universe(1, cpu_ghz=2.0)
        job = ompi_run(universe, "t_work", 1)
        assert job.results[0] == pytest.approx(2.0)

    def test_app_exception_fails_job(self):
        def main(ctx):
            yield ctx.compute(seconds=0.001)
            raise RuntimeError("app bug")

        define_app("t_crash", main)
        universe = make_universe(2)
        job = ompi_run(universe, "t_crash", 2)
        assert job.state.value == "failed"
