"""Unit tests for the network substrate."""

import pytest

from repro.netsim.models import LinkModel, ethernet_1g, infiniband, loopback
from repro.netsim.transport import Endpoint
from repro.simenv.cluster import Cluster, ClusterSpec
from repro.simenv.kernel import Delay
from repro.util.errors import NetworkError
from tests.conftest import run_gen


class TestLinkModels:
    def test_transfer_time_components(self):
        model = LinkModel("x", latency_s=1e-5, bandwidth_Bps=1e8, per_msg_overhead_s=1e-6)
        assert model.transmit_time(0) == pytest.approx(1e-6)
        assert model.transmit_time(1_000_000) == pytest.approx(1e-6 + 0.01)
        assert model.transfer_time(0) == pytest.approx(1.1e-5)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ethernet_1g().transmit_time(-1)

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            LinkModel("x", latency_s=-1, bandwidth_Bps=1)
        with pytest.raises(ValueError):
            LinkModel("x", latency_s=0, bandwidth_Bps=0)

    def test_paper_testbed_relationships(self):
        eth, ib = ethernet_1g(), infiniband()
        # IB: an order of magnitude lower latency, much higher bandwidth.
        assert ib.latency_s * 5 <= eth.latency_s
        assert ib.bandwidth_Bps >= 5 * eth.bandwidth_Bps
        assert eth.checkpointable and not ib.checkpointable
        assert loopback().checkpointable


class TestFabric:
    def _pair(self, cluster):
        eth = cluster.eth
        a = eth.bind("node00", "pA")
        b = eth.bind("node01", "pB")
        return eth, a, b

    def test_send_recv_roundtrip(self, cluster):
        eth, a, b = self._pair(cluster)

        def main():
            yield from eth.send(a, b, {"x": 1}, 100)
            dgram = yield from eth.recv(b)
            return dgram

        dgram = run_gen(cluster.kernel, main())
        assert dgram.payload == {"x": 1}
        assert dgram.src == a and dgram.dst == b
        assert cluster.kernel.now >= eth.model.transfer_time(100)

    def test_in_order_delivery(self, cluster):
        eth, a, b = self._pair(cluster)

        def sender():
            for i in range(10):
                yield from eth.send(a, b, i, 50)

        def receiver():
            got = []
            for _ in range(10):
                dgram = yield from eth.recv(b)
                got.append(dgram.payload)
            return got

        cluster.kernel.spawn(sender(), "s")
        thread = cluster.kernel.spawn(receiver(), "r")
        cluster.kernel.run()
        assert thread.result == list(range(10))

    def test_nic_serialization_spreads_transmissions(self, cluster):
        """Two concurrent large sends from one node serialize on the NIC."""
        eth = cluster.eth
        a = eth.bind("node00", "p")
        b = eth.bind("node01", "p")
        size = 1_000_000

        def send_two():
            # Two threads sending concurrently from the same NIC.
            done = []

            def one():
                yield from eth.send(a, b, "x", size)
                done.append(cluster.kernel.now)

            cluster.kernel.spawn(one(), "s1")
            cluster.kernel.spawn(one(), "s2")
            yield from eth.recv(b)
            yield from eth.recv(b)
            return done

        done = run_gen(cluster.kernel, send_two())
        one_tx = eth.model.transmit_time(size)
        assert max(done) >= 2 * one_tx * 0.99

    def test_unbound_destination_drops(self, cluster):
        eth = cluster.eth
        a = eth.bind("node00", "p")
        ghost = Endpoint("node01", "ghost")

        def main():
            yield from eth.send(a, ghost, "x", 10)

        run_gen(cluster.kernel, main())
        assert eth.dropped == 1
        assert eth.delivered == 0

    def test_down_node_drops(self, cluster):
        eth = cluster.eth
        a = eth.bind("node00", "p")
        b = eth.bind("node01", "p")

        def main():
            cluster.node("node01").crash()
            yield from eth.send(a, b, "x", 10)

        run_gen(cluster.kernel, main())
        assert eth.dropped == 1

    def test_send_from_down_node_raises(self, cluster):
        eth = cluster.eth
        a = eth.bind("node00", "p")
        b = eth.bind("node01", "p")
        cluster.node("node00").crash()

        def main():
            yield from eth.send(a, b, "x", 10)

        with pytest.raises(NetworkError):
            run_gen(cluster.kernel, main())

    def test_double_bind_rejected(self, cluster):
        cluster.eth.bind("node00", "p")
        with pytest.raises(NetworkError):
            cluster.eth.bind("node00", "p")

    def test_bind_unknown_node_rejected(self, cluster):
        with pytest.raises(NetworkError):
            cluster.eth.bind("nodeXX", "p")

    def test_unbind_then_recv_rejected(self, cluster):
        ep = cluster.eth.bind("node00", "p")
        cluster.eth.unbind(ep)

        def main():
            yield from cluster.eth.recv(ep)

        with pytest.raises(NetworkError):
            run_gen(cluster.kernel, main())

    def test_try_recv_and_pending(self, cluster):
        eth, a, b = self._pair(cluster)
        ok, _ = eth.try_recv(b)
        assert not ok

        def main():
            yield from eth.send(a, b, "z", 10)

        run_gen(cluster.kernel, main())
        assert eth.pending(b) == 1
        ok, dgram = eth.try_recv(b)
        assert ok and dgram.payload == "z"

    def test_in_flight_accounting_returns_to_zero(self, cluster):
        eth, a, b = self._pair(cluster)

        def main():
            for _ in range(5):
                yield from eth.send(a, b, "m", 1000)
            for _ in range(5):
                yield from eth.recv(b)

        run_gen(cluster.kernel, main())
        assert eth.in_flight == 0
        assert eth.delivered == 5

    def test_nic_counters(self, cluster):
        eth, a, b = self._pair(cluster)

        def main():
            yield from eth.send(a, b, "m", 123)
            yield from eth.recv(b)

        run_gen(cluster.kernel, main())
        nic_a = cluster.node("node00").nics["eth"]
        nic_b = cluster.node("node01").nics["eth"]
        assert nic_a.tx_msgs == 1 and nic_a.tx_bytes == 123
        assert nic_b.rx_msgs == 1 and nic_b.rx_bytes == 123


class TestPostAndSenderDeath:
    """``post`` is the callback form of ``send``; a sender that dies
    before its message is serialized puts nothing on the wire."""

    def _pair(self, cluster):
        eth = cluster.eth
        return eth, eth.bind("node00", "pA"), eth.bind("node01", "pB")

    def test_post_times_and_delivers_like_send(self, cluster):
        eth, a, b = self._pair(cluster)
        kernel = cluster.kernel
        on_wire = []
        eth.post(a, b, "m", 1000, lambda d: on_wire.append((kernel.now, d.payload)),
                 lambda: True)
        assert eth.in_flight == 1 and not on_wire  # post never blocks
        kernel.run()
        assert on_wire == [(eth.model.transmit_time(1000), "m")]
        assert kernel.now == eth.model.transfer_time(1000)
        assert eth.in_flight == 0 and eth.delivered == 1
        ok, dgram = eth.try_recv(b)
        assert ok and dgram.payload == "m" and dgram.send_time == 0.0

    def test_post_and_send_queue_on_the_same_nic(self, cluster):
        eth, a, b = self._pair(cluster)
        size = 1_000_000
        times = []
        eth.post(a, b, "first", size, lambda d: times.append(cluster.kernel.now),
                 lambda: True)

        def main():
            yield from eth.send(a, b, "second", size)
            times.append(cluster.kernel.now)

        run_gen(cluster.kernel, main())
        one_tx = eth.model.transmit_time(size)
        assert times == [one_tx, 2 * one_tx]
        assert [eth.try_recv(b)[1].payload for _ in range(2)] == ["first", "second"]

    def test_post_from_down_node_raises(self, cluster):
        eth, a, b = self._pair(cluster)
        cluster.node("node00").crash()
        with pytest.raises(NetworkError):
            eth.post(a, b, "x", 10, lambda d: None, lambda: True)
        assert eth.in_flight == 0

    def test_posting_sender_dies_mid_serialization(self, cluster):
        eth, a, b = self._pair(cluster)
        alive = [True]
        on_wire = []
        eth.post(a, b, "x", 1_000_000, on_wire.append, lambda: alive[0])
        cluster.kernel.call_later(
            eth.model.transmit_time(1_000_000) / 2, lambda: alive.__setitem__(0, False)
        )
        cluster.kernel.run()
        assert not on_wire
        assert eth.in_flight == 0
        assert (eth.delivered, eth.dropped, eth.pending(b)) == (0, 1, 0)

    def test_sending_thread_killed_mid_serialization(self, cluster):
        eth, a, b = self._pair(cluster)

        def main():
            yield from eth.send(a, b, "x", 1_000_000)

        thread = cluster.kernel.spawn(main(), "sender")
        cluster.kernel.call_later(
            eth.model.transmit_time(1_000_000) / 2, thread.kill
        )
        cluster.kernel.run()
        assert eth.in_flight == 0
        assert (eth.delivered, eth.dropped, eth.pending(b)) == (0, 1, 0)


class TestHandlers:
    def _pair(self, cluster):
        eth = cluster.eth
        return eth, eth.bind("node00", "pA"), eth.bind("node01", "pB")

    def test_handler_runs_at_delivery_time_and_bypasses_mailbox(self, cluster):
        eth, a, b = self._pair(cluster)
        kernel = cluster.kernel
        got = []
        eth.attach_handler(b, lambda d: got.append((kernel.now, d.payload)))

        def main():
            yield from eth.send(a, b, "m", 100)

        spawned = kernel.stats.threads_spawned
        run_gen(kernel, main())
        kernel.run()
        assert got == [(eth.model.transfer_time(100), "m")]
        assert eth.pending(b) == 0 and eth.delivered == 1
        # nothing but the sender ran: a handler is not a thread
        assert kernel.stats.threads_spawned == spawned + 1

    def test_queued_frames_handled_in_order_at_attach_time(self, cluster):
        eth, a, b = self._pair(cluster)
        kernel = cluster.kernel
        got = []

        def sender():
            for i in range(3):
                yield from eth.send(a, b, i, 50)

        run_gen(kernel, sender())
        kernel.run()
        assert eth.pending(b) == 3
        t_attach = kernel.now + 1.0

        def late_sender():
            yield from eth.send(a, b, "late", 50)

        def attach():
            eth.attach_handler(b, lambda d: got.append((kernel.now, d.payload)))
            # not yet: the handler takes over from a zero-delay callback
            assert got == []
            kernel.spawn(late_sender(), "late")

        kernel.call_at(t_attach, attach)
        kernel.run()
        assert [p for _, p in got] == [0, 1, 2, "late"]
        assert [t for t, _ in got[:3]] == [t_attach] * 3
        assert got[3][0] == pytest.approx(t_attach + eth.model.transfer_time(50))
        assert eth.pending(b) == 0

    def test_frame_arriving_between_attach_and_install_keeps_its_place(self, cluster):
        eth, a, b = self._pair(cluster)
        kernel = cluster.kernel
        got = []

        def sender():
            yield from eth.send(a, b, "old", 50)
            yield from eth.send(a, b, "new", 50)

        kernel.spawn(sender(), "s")
        # attach at the very instant "old" is delivered, from a callback
        # scheduled before the delivery timer: "old" lands in the
        # mailbox after attach_handler() and before the install
        kernel.call_at(
            eth.model.transfer_time(50),
            lambda: eth.attach_handler(b, lambda d: got.append(d.payload)),
        )
        kernel.run()
        assert got == ["old", "new"]

    def test_detach_falls_back_to_mailbox(self, cluster):
        eth, a, b = self._pair(cluster)
        got = []
        eth.attach_handler(b, lambda d: got.append(d.payload))

        def main():
            yield from eth.send(a, b, 1, 10)
            yield Delay(1.0)
            eth.detach_handler(b)
            yield from eth.send(a, b, 2, 10)
            dgram = yield from eth.recv(b)
            return dgram.payload

        assert run_gen(cluster.kernel, main()) == 2
        assert got == [1]

    def test_detach_before_install_cancels_it(self, cluster):
        eth, a, b = self._pair(cluster)
        got = []
        eth.attach_handler(b, got.append)
        eth.detach_handler(b)

        def main():
            yield from eth.send(a, b, "m", 10)

        run_gen(cluster.kernel, main())
        cluster.kernel.run()
        assert got == [] and eth.pending(b) == 1

    def test_handler_detaching_itself_stops_the_drain(self, cluster):
        eth, a, b = self._pair(cluster)
        got = []

        def sender():
            for i in range(3):
                yield from eth.send(a, b, i, 10)

        run_gen(cluster.kernel, sender())
        cluster.kernel.run()

        def once(dgram):
            got.append(dgram.payload)
            eth.detach_handler(b)

        eth.attach_handler(b, once)
        cluster.kernel.run()
        assert got == [0] and eth.pending(b) == 2

    def test_attach_needs_a_bound_endpoint_and_unbind_detaches(self, cluster):
        eth, a, b = self._pair(cluster)
        with pytest.raises(NetworkError):
            eth.attach_handler(Endpoint("node01", "ghost"), print)
        got = []
        eth.attach_handler(b, got.append)
        cluster.kernel.run()
        eth.unbind(b)

        def main():
            yield from eth.send(a, b, "m", 10)

        run_gen(cluster.kernel, main())
        cluster.kernel.run()
        assert got == [] and eth.dropped == 1


class TestClusterTopology:
    def test_default_fabrics(self, cluster):
        assert set(cluster.fabrics) == {"eth", "ib", "lo"}

    def test_no_infiniband_option(self):
        cluster = Cluster(ClusterSpec(n_nodes=2, with_infiniband=False))
        assert set(cluster.fabrics) == {"eth", "lo"}

    def test_every_node_on_every_fabric(self, cluster):
        for node in cluster.nodes:
            assert set(node.nics) == {"eth", "ib", "lo"}

    def test_node_lookup(self, cluster):
        assert cluster.node(0) is cluster.node("node00")
        with pytest.raises(KeyError):
            cluster.node("nodeXY")
        with pytest.raises(KeyError):
            cluster.fabric("myrinet")

    def test_rng_streams_deterministic(self, cluster):
        a1 = cluster.rng("s").uniform()
        a2 = Cluster(ClusterSpec(n_nodes=4)).rng("s").uniform()
        assert a1 == a2
        assert cluster.rng("other").uniform() != a1

    def test_rng_streams_persistent(self, cluster):
        """Repeated cluster.rng() calls return ONE stream that advances
        state — the Poisson-process fix: re-seeding per call would draw
        the identical first sample forever."""
        assert cluster.rng("s") is cluster.rng("s")
        draws = [cluster.rng("s").uniform() for _ in range(4)]
        assert len(set(draws)) == len(draws)
        # a fresh same-seed cluster reproduces the full sequence
        other = Cluster(ClusterSpec(n_nodes=4))
        assert [other.rng("s").uniform() for _ in range(4)] == draws
