"""Message-path budget (ROADMAP item 1c): what one MPI message may cost
the simulator, in exact counts.

The eager path runs to completion inside kernel callbacks — no helper
thread per ``isend``, no pump thread per endpoint — so a job's thread
count does not depend on how many messages it sends, and a 64 B
ping-pong costs a fixed number of kernel events.  A changed count is
either a bug or an intended change that re-pins the constant here in
the same PR.
"""

import numpy as np
import pytest

from repro.mca.params import MCAParams
from repro.ompi.constants import MSG_HEADER_BYTES
from repro.tools.api import ompi_run
from repro.util.errors import MPIError
from tests.conftest import make_universe
from tests.test_pml import define_app

#: kernel events per 64 B round trip: per message, the sender's on-wire
#: timer, its wake-up from ``wait``, the delivery timer, and the
#: receiver's wake-up from ``wait``
EVENTS_PER_ROUND_TRIP = 8


def pingpong_stats(round_trips: int) -> dict:
    universe = make_universe(2)
    job = ompi_run(
        universe,
        "netpipe",
        2,
        args={"sizes": [64], "reps_per_size": round_trips},
        params=MCAParams({"crcp": "coord"}),
    )
    assert job.state.value == "finished"
    stats = universe.kernel.stats
    return {"events": stats.events, "threads_spawned": stats.threads_spawned}


class TestPingPongBudget:
    def test_no_thread_and_eight_events_per_round_trip(self):
        n = 50
        once, twice = pingpong_stats(n), pingpong_stats(2 * n)
        assert twice["threads_spawned"] == once["threads_spawned"]
        assert (twice["events"] - once["events"]) / n == EVENTS_PER_ROUND_TRIP


class TestEagerSendRunsInTheCaller:
    @pytest.mark.parametrize("nbytes", [64, 200_000], ids=["eager", "rts"])
    def test_send_over_a_down_nic_fails_the_request_without_a_thread(self, nbytes):
        """The first fragment of either protocol is posted in ``isend``."""
        universe = make_universe(2)
        stats = universe.kernel.stats
        seen = {}

        def main(ctx):
            yield from ctx.barrier()
            if ctx.rank == 0:
                ompi = ctx._runner.ompi
                nic = ompi.proc.node.nics["ib"]
                nic.down()
                ib = ompi.cluster.fabric("ib")
                spawned, in_flight = stats.threads_spawned, ib.in_flight
                req = yield ctx.isend(b"x" * nbytes, 1, 1)
                seen["spawned"] = stats.threads_spawned - spawned
                seen["in_flight"] = ib.in_flight - in_flight
                seen["active_sends"] = ompi.pml_base.active_sends
                with pytest.raises(MPIError, match="send failed: NIC .* is down"):
                    yield ctx.wait(req)
                nic.up = True  # MPI_FINALIZE's barrier needs it

        define_app("t_budget_nic_down", main)
        job = ompi_run(universe, "t_budget_nic_down", 2)
        assert job.state.value == "finished"
        assert seen["spawned"] == 0 and seen["active_sends"] == 0
        assert seen["in_flight"] == 0

    def test_quiesce_waits_for_the_last_posted_send_to_reach_the_wire(self):
        universe = make_universe(2)
        kernel = universe.kernel
        nbytes = 60_000  # eager (limit 65536), 60 us each on the ib NIC
        seen = {}

        def main(ctx):
            yield from ctx.barrier()
            if ctx.rank == 1:
                for _ in range(3):
                    yield from ctx.recv(0, 1)
                return None
            ompi = ctx._runner.ompi
            pml = ompi.pml_base

            def quiesce():
                yield from pml.quiesce_sends()
                seen["quiet_at"] = kernel.now
                seen["active_at_quiet"] = pml.active_sends

            spawned = kernel.stats.threads_spawned
            posted_at = yield ctx.now()
            reqs = []
            for _ in range(3):
                reqs.append((yield ctx.isend(np.zeros(nbytes, np.uint8), 1, 1)))
            seen["spawned"] = kernel.stats.threads_spawned - spawned
            seen["active_after_post"] = pml.active_sends
            ompi.proc.spawn_thread(quiesce(), name="quiesce")
            yield from ctx.waitall(reqs)
            seen["posted_at"] = posted_at
            seen["sends_done_at"] = yield ctx.now()
            seen["eager_sent"] = pml.stats["eager_sent"]

        define_app("t_budget_quiesce", main)
        job = ompi_run(universe, "t_budget_quiesce", 2)
        assert job.state.value == "finished"
        one_tx = universe.cluster.fabric("ib").model.transmit_time(
            MSG_HEADER_BYTES + nbytes
        )
        assert seen["spawned"] == 0 and seen["active_after_post"] == 3
        assert seen["quiet_at"] - seen["posted_at"] == pytest.approx(3 * one_tx)
        assert seen["quiet_at"] == seen["sends_done_at"]
        assert seen["active_at_quiet"] == 0 and seen["eager_sent"] >= 3

    def test_sender_death_mid_serialization_delivers_nothing(self):
        """A process that dies before its posted fragment is on the
        wire sends nothing, and the fabric's books still balance."""
        universe = make_universe(2)
        ib = universe.cluster.fabric("ib")
        seen = {}

        def main(ctx):
            yield from ctx.barrier()
            if ctx.rank == 1:
                yield ctx.compute(seconds=1.0)
                return None
            delivered = ib.delivered
            yield ctx.isend(np.zeros(60_000, np.uint8), 1, 1)
            seen["before"] = (ib.in_flight, ib.delivered - delivered, ib.dropped)
            ctx._runner.proc.kill()

        define_app("t_budget_sender_dies", main)
        ompi_run(universe, "t_budget_sender_dies", 2)
        universe.kernel.run()
        in_flight, delivered, dropped = seen["before"]
        assert (in_flight, delivered) == (1, 0)
        assert ib.in_flight == 0 and ib.dropped == dropped + 1


class TestRendezvousStillWorks:
    def test_large_message_goes_rts_cts_data_on_one_helper_thread(self):
        universe = make_universe(2)
        seen = {}
        big = np.arange(100_000, dtype=np.uint8)  # > pml_ob1_eager_limit

        def main(ctx):
            yield from ctx.barrier()
            pml = ctx._runner.ompi.pml_base
            if ctx.rank == 0:
                # (threads of this process: the HNP serves control
                # messages on threads of its own meanwhile)
                threads = ctx._runner.proc.threads
                spawned, eager = len(threads), pml.stats["eager_sent"]
                yield from ctx.send(big, 1, 1)
                seen["spawned"] = [t.name.split("/")[1] for t in threads[spawned:]]
                seen["sent"] = (pml.stats["rndv_sent"], pml.stats["eager_sent"] - eager)
                return None
            kinds = []
            handle = pml.handle_incoming
            pml.handle_incoming = lambda msg: kinds.append(msg.kind) or handle(msg)
            payload, status = yield from ctx.recv(0, 1)
            seen["kinds"] = list(kinds)
            return status.nbytes, bool((payload == big).all())

        define_app("t_budget_rndv", main)
        job = ompi_run(universe, "t_budget_rndv", 2)
        assert job.results[1] == (100_000, True)
        assert seen["sent"] == (1, 0)
        assert seen["kinds"] == ["rts", "data"]
        # the sender's one helper (it blocks until the CTS arrives)
        assert len(seen["spawned"]) == 1 and seen["spawned"][0].startswith("ob1-rndv")
