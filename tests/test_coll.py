"""In-simulation tests of the collective operations (layered over p2p,
paper section 3.1)."""

import numpy as np
import pytest

from repro.mca.params import MCAParams
from repro.ompi.coll.base import MAX, MIN, PROD, SUM
from repro.tools.api import ompi_run
from tests.conftest import make_universe
from tests.test_pml import define_app


NP_SIZES = [1, 2, 3, 4, 5, 8]


def run_collective(name, main, np_procs, params=None):
    universe = make_universe(4)
    define_app(name, main)
    job = ompi_run(universe, name, np_procs, params=params)
    assert job.state.value == "finished", job.state
    return job.results


class TestBarrier:
    @pytest.mark.parametrize("np_procs", NP_SIZES)
    def test_barrier_completes(self, np_procs):
        def main(ctx):
            yield from ctx.barrier()
            return "past"

        results = run_collective("t_barrier", main, np_procs)
        assert all(v == "past" for v in results.values())

    def test_barrier_actually_synchronizes(self):
        def main(ctx):
            # Rank 1 computes before the barrier; everyone reads the
            # clock after.  All post-barrier times must be >= rank 1's
            # pre-barrier completion time.
            if ctx.rank == 1:
                yield ctx.compute(seconds=0.05)
            before = yield ctx.now()
            yield from ctx.barrier()
            after = yield ctx.now()
            return (before, after)

        results = run_collective("t_barrier_sync", main, 4)
        slowest_before = max(before for before, _ in results.values())
        assert all(after >= slowest_before for _, after in results.values())


class TestBcast:
    @pytest.mark.parametrize("np_procs", NP_SIZES)
    @pytest.mark.parametrize("algorithm", ["binomial", "linear"])
    def test_bcast_value(self, np_procs, algorithm):
        def main(ctx):
            value = {"data": 42} if ctx.rank == 0 else None
            got = yield from ctx.bcast(value, root=0)
            return got

        params = MCAParams({"coll_basic_bcast_algorithm": algorithm})
        results = run_collective("t_bcast", main, np_procs, params)
        assert all(v == {"data": 42} for v in results.values())

    @pytest.mark.parametrize("root", [0, 1, 3])
    def test_bcast_nonzero_root(self, root):
        def main(ctx):
            value = ctx.rank * 100 if ctx.rank == root else None
            got = yield from ctx.bcast(value, root=root)
            return got

        results = run_collective("t_bcast_root", main, 4)
        assert all(v == root * 100 for v in results.values())

    def test_bcast_numpy(self):
        def main(ctx):
            value = np.arange(50) if ctx.rank == 0 else None
            got = yield from ctx.bcast(value, root=0)
            return int(got.sum())

        results = run_collective("t_bcast_np", main, 4)
        assert all(v == sum(range(50)) for v in results.values())


class TestReduceFamily:
    @pytest.mark.parametrize("np_procs", NP_SIZES, ids="binomial-{}".format)  # the one reduce path
    def test_reduce_sum(self, np_procs):
        def main(ctx):
            total = yield from ctx.reduce(ctx.rank + 1, op=SUM, root=0)
            return total

        results = run_collective("t_reduce", main, np_procs)
        expected = np_procs * (np_procs + 1) // 2
        assert results[0] == expected
        assert all(results[r] is None for r in range(1, np_procs))

    @pytest.mark.parametrize("op,expected", [(MAX, 4), (MIN, 1), (PROD, 24)])
    def test_reduce_operators(self, op, expected):
        def main(ctx):
            return (yield from ctx.reduce(ctx.rank + 1, op=op, root=0))

        results = run_collective("t_reduce_ops", main, 4)
        assert results[0] == expected

    @pytest.mark.parametrize("np_procs", NP_SIZES)
    def test_allreduce(self, np_procs):
        def main(ctx):
            return (yield from ctx.allreduce(ctx.rank, op=SUM))

        results = run_collective("t_allreduce", main, np_procs)
        expected = sum(range(np_procs))
        assert all(v == expected for v in results.values())

    def test_allreduce_numpy_arrays(self):
        def main(ctx):
            vec = np.full(8, float(ctx.rank))
            out = yield from ctx.allreduce(vec, op=SUM)
            return out.tolist()

        results = run_collective("t_allreduce_np", main, 4)
        assert all(v == [6.0] * 8 for v in results.values())

    def test_reduce_does_not_alias_input(self):
        def main(ctx):
            vec = np.ones(4)
            out = yield from ctx.allreduce(vec, op=SUM)
            vec[:] = 99  # mutating the input must not affect the output
            return out.tolist()

        results = run_collective("t_reduce_alias", main, 2)
        assert all(v == [2.0] * 4 for v in results.values())

    @pytest.mark.parametrize("np_procs", NP_SIZES)
    def test_scan(self, np_procs):
        def main(ctx):
            return (yield from ctx.scan(ctx.rank + 1, op=SUM))

        results = run_collective("t_scan", main, np_procs)
        for rank in range(np_procs):
            assert results[rank] == sum(range(1, rank + 2))


class TestGatherScatter:
    @pytest.mark.parametrize("np_procs", NP_SIZES)
    def test_gather(self, np_procs):
        def main(ctx):
            return (yield from ctx.gather(ctx.rank * 2, root=0))

        results = run_collective("t_gather", main, np_procs)
        assert results[0] == [r * 2 for r in range(np_procs)]

    @pytest.mark.parametrize("np_procs", NP_SIZES)
    def test_scatter(self, np_procs):
        def main(ctx):
            values = [f"v{r}" for r in range(ctx.size)] if ctx.rank == 0 else None
            return (yield from ctx.scatter(values, root=0))

        results = run_collective("t_scatter", main, np_procs)
        assert all(results[r] == f"v{r}" for r in range(np_procs))

    def test_scatter_wrong_length_fails(self):
        def main(ctx):
            values = [1] if ctx.rank == 0 else None
            yield from ctx.scatter(values, root=0)

        universe = make_universe(4)
        define_app("t_scatter_bad", main)
        job = ompi_run(universe, "t_scatter_bad", 3)
        assert job.state.value == "failed"

    @pytest.mark.parametrize("np_procs", NP_SIZES)
    def test_allgather(self, np_procs):
        def main(ctx):
            return (yield from ctx.allgather(ctx.rank**2))

        results = run_collective("t_allgather", main, np_procs)
        expected = [r**2 for r in range(np_procs)]
        assert all(v == expected for v in results.values())

    @pytest.mark.parametrize("np_procs", NP_SIZES)
    def test_alltoall(self, np_procs):
        def main(ctx):
            values = [(ctx.rank, peer) for peer in range(ctx.size)]
            return (yield from ctx.alltoall(values))

        results = run_collective("t_alltoall", main, np_procs)
        for rank in range(np_procs):
            assert results[rank] == [(src, rank) for src in range(np_procs)]


class TestCommManagement:
    def test_comm_dup_isolates_traffic(self):
        def main(ctx):
            dup = yield from ctx.comm_dup()
            assert dup.cid != ctx.comm_world.cid
            # Same tag on both communicators; messages must not cross.
            if ctx.rank == 0:
                yield from ctx.send("world", 1, 3)
                yield from ctx.send("dup", 1, 3, comm=dup)
            else:
                on_dup, _ = yield from ctx.recv(0, 3, comm=dup)
                on_world, _ = yield from ctx.recv(0, 3)
                return (on_world, on_dup)

        results = run_collective("t_dup", main, 2)
        assert results[1] == ("world", "dup")

    def test_comm_split_halves(self):
        def main(ctx):
            color = ctx.rank % 2
            sub = yield from ctx.comm_split(color, ctx.rank)
            total = yield from ctx.allreduce(ctx.rank, comm=sub)
            return (sub.size, total)

        results = run_collective("t_split", main, 4)
        assert results[0] == (2, 0 + 2)
        assert results[1] == (2, 1 + 3)
        assert results[2] == (2, 0 + 2)
        assert results[3] == (2, 1 + 3)

    def test_split_collectives_within_group(self):
        def main(ctx):
            sub = yield from ctx.comm_split(0 if ctx.rank < 2 else 1, ctx.rank)
            gathered = yield from ctx.gather(ctx.rank, root=0, comm=sub)
            return gathered

        results = run_collective("t_split_coll", main, 4)
        assert results[0] == [0, 1]
        assert results[2] == [2, 3]
