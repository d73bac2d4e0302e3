"""Tests for the ORTE runtime: OOB/RML, universe boot, PLM, FILEM."""

import pytest

from repro.orte.oob import TAG_PS_REPLY, TAG_PS_REQUEST
from repro.simenv.kernel import Delay
from repro.util.errors import NetworkError
from repro.util.ids import ProcessName, daemon_name, hnp_name
from tests.conftest import make_universe, run_gen


class TestUniverseBoot:
    def test_hnp_and_orteds_exist(self, universe):
        assert universe.hnp is not None
        assert universe.lookup(hnp_name()) is not None
        for i in range(4):
            assert universe.lookup(daemon_name(i)) is not None

    def test_one_orted_per_node(self, universe):
        assert set(universe.orteds) == {n.name for n in universe.cluster.nodes}

    def test_jobids_monotonic(self, universe):
        assert universe.new_jobid() == 1
        assert universe.new_jobid() == 2

    def test_tool_names_unique(self, universe):
        a, b = universe.new_tool_name(), universe.new_tool_name()
        assert a != b and a.jobid == b.jobid == 999

    def test_lookup_dead_process_returns_none(self, universe):
        proc = universe.lookup(daemon_name(0))
        proc.kill()
        assert universe.lookup(daemon_name(0)) is None

    def test_hnp_frameworks_open(self, universe):
        assert universe.hnp.plm.name == "rsh"
        assert universe.hnp.snapc.name == "full"
        assert universe.hnp.filem.name == "rsh"

    def test_param_forced_filem(self):
        universe = make_universe(2, params={"filem": "shared"})
        assert universe.hnp.filem.name == "shared"


class TestRML:
    def test_send_recv_between_daemons(self, universe):
        hnp_rml = universe.hnp.rml
        orted = universe.orteds["node01"]

        def sender():
            yield from hnp_rml.send(orted.proc.name, "test.tag", {"v": 1})

        def receiver():
            sender_name, payload = yield from orted.rml.recv("test.tag")
            return sender_name, payload

        universe.kernel.spawn(sender(), "s")
        thread = universe.kernel.spawn(receiver(), "r")
        universe.kernel.run()
        name, payload = thread.result
        assert name == hnp_name()
        assert payload == {"v": 1}

    def test_send_to_unknown_raises(self, universe):
        def main():
            yield from universe.hnp.rml.send(ProcessName(77, 5), "t", {})

        with pytest.raises(NetworkError):
            run_gen(universe.kernel, main())

    def test_concurrent_rpcs_do_not_cross(self, universe):
        """Two in-flight RPCs on the same reply tag must each get their
        own reply (regression: reply crossing deadlocked gathers)."""
        hnp = universe.hnp
        replies = {}

        def client(index, node):
            orted = universe.orteds[node]
            _, reply = yield from hnp.rml.rpc(
                orted.proc.name, "echo.req", {"index": index}, "echo.rep"
            )
            replies[index] = reply["index"]

        def server(node):
            orted = universe.orteds[node]
            sender, payload = yield from orted.rml.recv("echo.req")
            # Deliberately reply slowly and out of order.
            yield Delay(0.05 if payload["index"] == 0 else 0.01)
            yield from orted.rml.send(
                sender, "echo.rep", orted.rml.reply_to(payload, payload)
            )

        for i, node in enumerate(["node00", "node01"]):
            universe.kernel.spawn(server(node), f"srv{i}")
            universe.kernel.spawn(client(i, node), f"cli{i}")
        universe.kernel.run()
        assert replies == {0: 0, 1: 1}

    def test_endpoint_owns_no_thread(self, universe):
        """Routing runs in the fabric's delivery callback: building an
        RML spawns nothing, and neither does receiving a message."""
        from repro.orte.oob import RML
        from repro.simenv.process import SimProcess

        kernel = universe.kernel
        proc = SimProcess(universe.cluster.node("node02"), ProcessName(55, 0))
        spawned = kernel.stats.threads_spawned
        rml = RML(universe, proc)
        assert kernel.stats.threads_spawned == spawned

        def sender():
            for i in range(3):
                yield from universe.hnp.rml.send(rml.proc.name, "t", {"i": i})

        universe.register(proc)
        run_gen(kernel, sender())
        kernel.run()
        assert kernel.stats.threads_spawned == spawned + 1  # the sender
        assert [rml.try_recv("t")[1][1]["i"] for _ in range(3)] == [0, 1, 2]

    def test_reply_without_a_waiter_falls_back_to_the_tag_queue(self, universe):
        hnp_rml = universe.hnp.rml
        orted = universe.orteds["node01"]
        got = {}

        def client():
            got["rpc"] = yield from hnp_rml.rpc(
                orted.proc.name, "echo.req", {"q": 1}, "echo.rep"
            )

        def server():
            sender, request = yield from orted.rml.recv("echo.req")
            yield from orted.rml.send(sender, "echo.rep", {"rpc_id": 10**9, "stray": 1})
            yield from orted.rml.send(
                sender, "echo.rep", orted.rml.reply_to(request, {"a": 2})
            )

        universe.kernel.spawn(server(), "srv")
        universe.kernel.spawn(client(), "cli")
        universe.kernel.run()
        sender, reply = got["rpc"]
        assert sender == orted.proc.name and reply["a"] == 2
        # the matched reply went to its waiter only; the stray one,
        # whose rpc_id nobody waits for, is an ordinary tagged message
        ok, (_, stray) = hnp_rml.try_recv("echo.rep")
        assert ok and stray["stray"] == 1
        assert hnp_rml.try_recv("echo.rep") == (False, None)
        assert hnp_rml._rpc_waiters == {}

    def test_routing_failure_kills_the_process_not_the_run(self, universe):
        orted = universe.orteds["node01"]

        def boom(tag):
            raise RuntimeError("routing table corrupt")

        orted.rml._queue = boom

        def sender():
            yield from universe.hnp.rml.send(orted.proc.name, "t", {})

        universe.kernel.spawn(sender(), "s")
        universe.kernel.run()  # returns: the exception stayed inside
        assert not orted.proc.alive
        assert isinstance(orted.proc.exit_event._exc, RuntimeError)

    def test_message_for_a_dead_process_is_not_routed(self, universe):
        orted = universe.orteds["node01"]
        eth = universe.cluster.eth
        routed = []
        queue_of = orted.rml._queue
        orted.rml._queue = lambda tag: routed.append(tag) or queue_of(tag)

        def sender():
            yield from universe.hnp.rml.send(orted.proc.name, "first", {})
            yield Delay(1.0)
            yield from universe.hnp.rml.send(orted.proc.name, "second", {})
            orted.proc.kill()  # "second" is on the wire, not yet delivered

        delivered = eth.delivered
        run_gen(universe.kernel, sender())
        universe.kernel.run()
        assert eth.delivered >= delivered + 2 and eth.in_flight == 0
        # (the orted's own service loops look their tags up too)
        assert [tag for tag in routed if tag in ("first", "second")] == ["first"]

    def test_ps_request_reply(self, universe):
        def main():
            rml = universe.orteds["node00"].rml
            _, reply = yield from rml.rpc(hnp_name(), TAG_PS_REQUEST, {}, TAG_PS_REPLY)
            return reply

        reply = run_gen(universe.kernel, main())
        assert reply["jobs"] == []


class TestPLM:
    def test_rsh_default(self, universe):
        assert universe.hnp.plm.name == "rsh"
        assert universe.hnp.plm.per_node_cost_s > 0

    def test_slurm_selected_with_allocation(self):
        universe = make_universe(2, params={"plm_slurm_jobid": "123"})
        assert universe.hnp.plm.name == "slurm"

    def test_slurm_cheaper_than_rsh(self):
        """Launching the same job under slurm finishes earlier."""
        times = {}
        for params in ({}, {"plm_slurm_jobid": "1"}):
            universe = make_universe(4, params=params)
            from repro.tools.api import ompi_run

            ompi_run(universe, "ring", 4, args={"laps": 1})
            times[universe.hnp.plm.name] = universe.kernel.now
        assert times["slurm"] < times["rsh"]


class TestFILEM:
    def _seed_local(self, universe, node_name, tree, files):
        fs = universe.cluster.node(node_name).local_fs
        for name, data in files.items():
            fs.poke(f"{tree}/{name}", data)
        return fs

    def test_rsh_gather_moves_to_stable(self, universe):
        self._seed_local(universe, "node01", "/ckpt/r1", {"image.pkl": b"I" * 1000})
        hnp = universe.hnp

        def main():
            moved = yield from hnp.filem.gather(
                hnp, [("node01", "/ckpt/r1", "/snapshots/g/rank1")]
            )
            return moved

        moved = run_gen(universe.kernel, main())
        assert moved == 1000
        assert universe.cluster.stable_fs.peek("/snapshots/g/rank1/image.pkl") == b"I" * 1000

    def test_rsh_gather_parallel_entries(self, universe):
        for i in range(4):
            self._seed_local(universe, f"node0{i}", f"/c/r{i}", {"f": b"x" * 100})
        hnp = universe.hnp
        entries = [(f"node0{i}", f"/c/r{i}", f"/g/rank{i}") for i in range(4)]

        def main():
            moved = yield from hnp.filem.gather(hnp, entries)
            return moved

        assert run_gen(universe.kernel, main()) == 400
        for i in range(4):
            assert universe.cluster.stable_fs.exists(f"/g/rank{i}/f")

    def test_rsh_broadcast_preloads(self, universe):
        # a directory without a manifest lands its image and metadata
        universe.cluster.stable_fs.poke("/g/rank2/image.pkl", b"IMG")
        universe.cluster.stable_fs.poke("/g/rank2/metadata.json", b"META")
        hnp = universe.hnp

        def main():
            moved = yield from hnp.filem.broadcast(
                hnp, [("node03", ["/g/rank2"], "/restart/r2")]
            )
            return moved

        assert run_gen(universe.kernel, main()) == 7
        local = universe.cluster.node("node03").local_fs
        assert local.peek("/restart/r2/image.pkl") == b"IMG"
        assert local.peek("/restart/r2/metadata.json") == b"META"

    def test_remove_cleans_local_trees(self, universe):
        fs = self._seed_local(universe, "node02", "/tmp/ckpt", {"a": b"1", "b": b"2"})
        hnp = universe.hnp

        def main():
            count = yield from hnp.filem.remove(hnp, [("node02", "/tmp/ckpt")])
            return count

        assert run_gen(universe.kernel, main()) == 2
        assert fs.list_tree("/tmp") == []

    def test_remove_skips_dead_nodes(self, universe):
        self._seed_local(universe, "node02", "/tmp/x", {"a": b"1"})
        universe.cluster.node("node02").crash()
        hnp = universe.hnp

        def main():
            count = yield from hnp.filem.remove(hnp, [("node02", "/tmp/x")])
            return count

        assert run_gen(universe.kernel, main()) == 0

    def test_gather_from_dead_node_fails(self, universe):
        self._seed_local(universe, "node01", "/c/r", {"f": b"z"})
        universe.cluster.node("node01").crash()
        hnp = universe.hnp

        def main():
            yield from hnp.filem.gather(hnp, [("node01", "/c/r", "/g/r")])

        from repro.util.errors import VFSError

        with pytest.raises(VFSError):
            run_gen(universe.kernel, main())

    def test_shared_component_direct_stable(self):
        universe = make_universe(2, params={"filem": "shared"})
        hnp = universe.hnp
        assert hnp.filem.wants_direct_stable
        universe.cluster.stable_fs.poke("/snapshots/g/rank0/image.pkl", b"x")

        def main():
            moved = yield from hnp.filem.gather(
                hnp, [("node00", "/snapshots/g/rank0", "/snapshots/g/rank0")]
            )
            return moved

        assert run_gen(universe.kernel, main()) == 0

    def test_shared_gather_missing_tree_fails(self):
        universe = make_universe(2, params={"filem": "shared"})
        hnp = universe.hnp

        def main():
            yield from hnp.filem.gather(hnp, [("node00", "/nope", "/also-nope")])

        from repro.util.errors import VFSError

        with pytest.raises(VFSError):
            run_gen(universe.kernel, main())
