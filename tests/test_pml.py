"""In-simulation tests of the ob1 PML: protocols, wildcards, BTL
selection, pre-init buffering."""

import numpy as np

from repro.apps.registry import _APPS
from repro.core.ft_event import FTState
from repro.mca.params import MCAParams
from repro.tools.api import ompi_run
from tests.conftest import make_universe


def define_app(name, fn):
    """Register (or replace) a test application."""
    _APPS[name] = fn
    return name


class TestEagerAndRendezvous:
    def test_small_message_uses_eager(self):
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(b"x" * 100, 1, 1)
            else:
                payload, status = yield from ctx.recv(0, 1)
                assert status.nbytes == 100
                return len(payload)

        define_app("t_eager", main)
        job = ompi_run(universe, "t_eager", 2)
        assert job.results[1] == 100

    def test_large_message_uses_rendezvous(self):
        universe = make_universe(2)
        stats = {}

        def main(ctx):
            big = np.zeros(200_000, dtype=np.uint8)
            if ctx.rank == 0:
                yield from ctx.send(big, 1, 1)
                stats.update(ctx._runner.ompi.pml_base.stats)
            else:
                payload, status = yield from ctx.recv(0, 1)
                assert status.nbytes == 200_000
                return int(payload.sum())

        define_app("t_rndv", main)
        job = ompi_run(universe, "t_rndv", 2)
        assert job.results[1] == 0
        assert stats["rndv_sent"] == 1
        assert stats["eager_sent"] == 0

    def test_eager_limit_parameter(self):
        universe = make_universe(2)
        stats = {}

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(b"y" * 2000, 1, 1)
                stats.update(ctx._runner.ompi.pml_base.stats)
            else:
                yield from ctx.recv(0, 1)

        define_app("t_limit", main)
        ompi_run(universe, "t_limit", 2, params=MCAParams({"pml_ob1_eager_limit": "1000"}))
        assert stats["rndv_sent"] == 1

    def test_eager_payload_is_copied(self):
        """Sender buffer reuse after eager send must not corrupt the
        receiver's data (MPI semantics)."""
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                buf = np.arange(10)
                req = yield ctx.isend(buf, 1, 1)
                yield ctx.wait(req)
                buf[:] = -1  # reuse after completion
                yield from ctx.barrier()
            else:
                yield from ctx.barrier()
                payload, _ = yield from ctx.recv(0, 1)
                return payload.tolist()

        define_app("t_copy", main)
        job = ompi_run(universe, "t_copy", 2)
        assert job.results[1] == list(range(10))

    def test_mixed_protocols_do_not_overtake(self):
        """MPI non-overtaking: sends to one peer on one tag match in
        program order even when they alternate between rendezvous and
        eager (a small eager fragment must not pass an earlier RTS)."""
        universe = make_universe(2)
        sizes = [200_000, 5, 300_000, 7, 9, 100_000]

        def main(ctx):
            if ctx.rank == 0:
                reqs = []
                for n in sizes:
                    reqs.append((yield ctx.isend(np.zeros(n, dtype=np.uint8), 1, 7)))
                for req in reqs:
                    yield ctx.wait(req)
            else:
                got = []
                for _ in sizes:
                    _, status = yield from ctx.recv(0, 7)
                    got.append(status.nbytes)
                return got

        define_app("t_mixed_order", main)
        job = ompi_run(universe, "t_mixed_order", 2)
        assert job.results[1] == sizes


class TestWildcardsAndProbe:
    def test_any_source(self):
        universe = make_universe(4)

        def main(ctx):
            if ctx.rank == 0:
                sources = []
                for _ in range(3):
                    _payload, status = yield from ctx.recv(ctx.ANY_SOURCE, 5)
                    sources.append(status.source)
                return sorted(sources)
            yield ctx.compute(seconds=0.001 * ctx.rank)
            yield from ctx.send(ctx.rank, 0, 5)

        define_app("t_anysrc", main)
        job = ompi_run(universe, "t_anysrc", 4)
        assert job.results[0] == [1, 2, 3]

    def test_any_tag_preserves_order(self):
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                for tag in (3, 7, 5):
                    yield from ctx.send(tag, 1, tag)
            else:
                got = []
                for _ in range(3):
                    payload, status = yield from ctx.recv(0, ctx.ANY_TAG)
                    got.append((payload, status.tag))
                return got

        define_app("t_anytag", main)
        job = ompi_run(universe, "t_anytag", 2)
        assert job.results[1] == [(3, 3), (7, 7), (5, 5)]

    def test_iprobe(self):
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send("hello", 1, 9)
                yield from ctx.barrier()
            else:
                yield from ctx.barrier()  # ensures the message arrived
                status = yield ctx.iprobe(0, 9)
                missing = yield ctx.iprobe(0, 10)
                payload, _ = yield from ctx.recv(0, 9)
                return (status is not None, missing is None, payload)

        define_app("t_iprobe", main)
        job = ompi_run(universe, "t_iprobe", 2)
        assert job.results[1] == (True, True, "hello")

    def test_test_op(self):
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                yield ctx.compute(seconds=0.01)
                yield from ctx.send(1, 1, 2)
            else:
                req = yield ctx.irecv(0, 2)
                done_early, _ = yield ctx.test(req)
                while True:
                    done, result = yield ctx.test(req)
                    if done:
                        return (done_early, result[0])
                    yield ctx.compute(seconds=0.002)

        define_app("t_test", main)
        job = ompi_run(universe, "t_test", 2)
        assert job.results[1] == (False, 1)


class TestValidation:
    def test_bad_destination_rank(self):
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 5, 0)  # rank 5 does not exist

        define_app("t_badrank", main)
        job = ompi_run(universe, "t_badrank", 2)
        assert job.state.value == "failed"

    def test_reserved_tag_rejected(self):
        universe = make_universe(2)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 1, 2**29 + 5)

        define_app("t_badtag", main)
        job = ompi_run(universe, "t_badtag", 2)
        assert job.state.value == "failed"


class TestBTLSelection:
    def _stats_app(self, record):
        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(b"z" * 100, 1, 1)
                for btl in ctx._runner.ompi.btls:
                    record[btl.name] = btl.sent_msgs
            else:
                yield from ctx.recv(0, 1)

        return main

    def test_ib_preferred_between_nodes(self):
        universe = make_universe(2)
        record = {}
        define_app("t_btl1", self._stats_app(record))
        ompi_run(universe, "t_btl1", 2)
        assert record["ib"] >= 1
        assert record.get("sm", 0) == 0

    def test_tcp_when_ib_disabled(self):
        universe = make_universe(2)
        record = {}
        define_app("t_btl2", self._stats_app(record))
        ompi_run(universe, "t_btl2", 2, params=MCAParams({"btl_ib_disable": "1"}))
        assert "ib" not in record
        assert record["tcp"] >= 1

    def test_sm_for_same_node(self):
        universe = make_universe(1)  # both ranks on the single node
        record = {}
        define_app("t_btl3", self._stats_app(record))
        ompi_run(universe, "t_btl3", 2)
        assert record["sm"] >= 1

    def test_btl_include_list(self):
        universe = make_universe(2)
        record = {}
        define_app("t_btl4", self._stats_app(record))
        ompi_run(universe, "t_btl4", 2, params=MCAParams({"btl": "tcp"}))
        assert set(record) == {"tcp"}


class TestPreInitBuffering:
    def test_fast_sender_does_not_lose_messages(self):
        """A rank can leave MPI_INIT and send while peers are still
        initializing; traffic must be buffered, not dropped."""
        universe = make_universe(4)

        def main(ctx):
            if ctx.rank == 0:
                for peer in range(1, ctx.size):
                    yield from ctx.send(peer * 11, peer, 4)
            else:
                payload, _ = yield from ctx.recv(0, 4)
                return payload

        define_app("t_preinit", main)
        job = ompi_run(universe, "t_preinit", 4)
        assert [job.results[r] for r in (1, 2, 3)] == [11, 22, 33]


class TestProgressHandlers:
    """The BTLs hand arriving fragments to the PML from the fabric's
    delivery callback; no thread is involved."""

    def test_ib_closed_for_checkpoint_loses_nothing(self):
        """Frames sent while the peer's ``ib`` endpoint is closed for a
        checkpoint queue, and are handled in send order, before any
        later frame, at the simulated time of the reopen."""
        universe = make_universe(2)
        seen = {}

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.barrier()
                for i in range(4):
                    yield from ctx.send(i, 1, 7)
                yield ctx.compute(seconds=2.0)
                yield from ctx.send("late", 1, 7)
                return None
            ompi = ctx._runner.ompi
            stats = ompi.pml_base.stats
            ib = next(btl for btl in ompi.btls if btl.name == "ib")
            yield from ctx.barrier()
            before = stats["delivered"]
            ib.ft_event(FTState.CHECKPOINT)
            assert not ib.is_connected
            yield ctx.compute(seconds=1.0)
            seen["while_closed"] = (stats["delivered"] - before, ib.fabric.pending(ib.ep))
            ib.ft_event(FTState.CONTINUE)
            assert ib.is_connected
            reopened = yield ctx.now()
            got = []
            for _ in range(4):
                payload, _ = yield from ctx.recv(0, 7)
                got.append(payload)
            seen["drained_at"] = (yield ctx.now()) - reopened
            seen["after_drain"] = (stats["delivered"] - before, ib.fabric.pending(ib.ep))
            payload, _ = yield from ctx.recv(0, 7)
            got.append(payload)
            seen["late_at"] = (yield ctx.now()) - reopened
            return got

        define_app("t_ib_reopen", main)
        job = ompi_run(universe, "t_ib_reopen", 2)
        assert job.results[1] == [0, 1, 2, 3, "late"]
        assert seen["while_closed"] == (0, 4)
        assert seen["after_drain"] == (4, 0)
        assert seen["drained_at"] == 0.0
        assert seen["late_at"] > 0.9

    def test_progress_failure_kills_the_process_not_the_run(self):
        universe = make_universe(2)
        procs = {}

        def main(ctx):
            procs[ctx.rank] = ctx._runner.proc
            if ctx.rank == 0:
                yield from ctx.barrier()
                yield from ctx.send(b"x", 1, 1)
                yield ctx.compute(seconds=1.0)
            else:
                yield from ctx.barrier()

                def corrupt(msg):
                    raise RuntimeError("matching engine corrupt")

                ctx._runner.ompi.pml_base.handle_incoming = corrupt
                yield ctx.compute(seconds=1.0)

        define_app("t_progress_boom", main)
        job = ompi_run(universe, "t_progress_boom", 2)  # returns normally
        assert job.state.value == "failed"
        assert not procs[1].alive
        assert isinstance(procs[1].exit_event._exc, RuntimeError)
        universe.kernel.run()

    def test_fragment_for_a_dead_process_is_not_handled(self):
        universe = make_universe(2)
        ib = universe.cluster.fabric("ib")
        handled = []
        seen = {}
        procs = {}

        def main(ctx):
            procs[ctx.rank] = ctx._runner.proc
            pml = ctx._runner.ompi.pml_base
            if ctx.rank == 1:
                handle = pml.handle_incoming
                pml.handle_incoming = lambda msg: handled.append(msg.tag) or handle(msg)
                yield from ctx.recv(0, 1)
                yield from ctx.barrier()
                yield ctx.compute(seconds=1.0)
                return None
            yield from ctx.send(b"a", 1, 1)
            yield from ctx.barrier()
            procs[1].kill()
            delivered = ib.delivered
            yield from ctx.send(b"b", 1, 2)  # completes: eager, on the wire
            yield ctx.compute(seconds=2e-5)  # > ib latency, < the job abort
            seen["delivered"] = ib.delivered - delivered

        define_app("t_dead_peer", main)
        ompi_run(universe, "t_dead_peer", 2)
        assert seen["delivered"] == 1  # the fabric did its part
        assert 1 in handled and 2 not in handled
