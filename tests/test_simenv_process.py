"""Unit tests for SimProcess, Node, failure injection, and the bench
harness utilities."""

import pytest

from repro.bench.harness import Row, format_table
from repro.simenv.failure import FailureSchedule
from repro.simenv.kernel import Delay, WaitEvent
from repro.simenv.process import SimProcess, run_process_main
from repro.util.errors import ProcessFailedError
from repro.util.ids import ProcessName
from tests.conftest import run_gen


def make_proc(cluster, node_index=0, label="p"):
    return SimProcess(cluster.nodes[node_index], ProcessName(1, 0), label=label)


class TestNode:
    def test_compute_seconds_scales_with_cpu(self, cluster):
        node = cluster.nodes[0]
        assert node.compute_seconds(4.0) == pytest.approx(4.0 / node.cpu_ghz)
        with pytest.raises(ValueError):
            node.compute_seconds(-1)

    def test_crash_kills_processes_and_disk(self, cluster):
        node = cluster.nodes[1]
        proc = SimProcess(node, ProcessName(1, 0), label="victim")
        node.crash()
        assert not node.up
        assert not proc.alive
        assert not node.local_fs.reachable

    def test_attach_to_down_node_rejected(self, cluster):
        node = cluster.nodes[1]
        node.crash()
        with pytest.raises(ProcessFailedError):
            SimProcess(node, ProcessName(1, 1), label="late")

    def test_crash_idempotent(self, cluster):
        node = cluster.nodes[0]
        node.crash()
        node.crash()  # no error


class TestSimProcess:
    def test_clean_exit_fires_event(self, cluster):
        proc = make_proc(cluster)

        def main():
            yield Delay(0.1)
            return 42

        run_process_main(proc, main)

        def waiter():
            value = yield WaitEvent(proc.exit_event)
            return value

        assert run_gen(cluster.kernel, waiter()) == 42
        assert not proc.alive
        assert proc not in cluster.nodes[0].processes

    def test_crash_fails_exit_event(self, cluster):
        proc = make_proc(cluster)

        def main():
            yield Delay(0.1)
            raise RuntimeError("bug")

        run_process_main(proc, main)

        def waiter():
            try:
                yield WaitEvent(proc.exit_event)
            except RuntimeError as exc:
                return f"failed: {exc}"

        assert run_gen(cluster.kernel, waiter()) == "failed: bug"

    def test_kill_terminates_all_threads(self, cluster):
        proc = make_proc(cluster)

        def forever():
            yield WaitEvent(cluster.kernel.event("never"))

        t1 = proc.spawn_thread(forever(), "a", daemon=True)
        t2 = proc.spawn_thread(forever(), "b", daemon=True)
        cluster.kernel.call_later(0.1, proc.kill)
        cluster.kernel.run()
        assert not t1.alive and not t2.alive
        assert not proc.alive

    def test_spawn_on_dead_process_rejected(self, cluster):
        proc = make_proc(cluster)
        proc.kill()
        with pytest.raises(ProcessFailedError):
            proc.spawn_thread(iter(()), "x")

    def test_service_registry(self, cluster):
        proc = make_proc(cluster)
        proc.register_service("svc", 123)
        assert proc.service("svc") == 123
        assert proc.maybe_service("missing") is None
        with pytest.raises(ValueError):
            proc.register_service("svc", 456)
        with pytest.raises(KeyError):
            proc.service("missing")

    def test_pids_unique(self, cluster):
        a = make_proc(cluster, 0, "a")
        b = SimProcess(cluster.nodes[0], ProcessName(1, 1), label="b")
        assert a.pid != b.pid


class TestFailureInjector:
    def test_scheduled_node_crash(self, cluster):
        cluster.failures.crash_node_at(0.5, "node02")
        cluster.run()
        assert not cluster.node("node02").up
        assert cluster.failures.injected == [(0.5, "node:node02")]

    def test_observer_callback(self, cluster):
        seen = []
        cluster.failures.on_failure(seen.append)
        cluster.failures.crash_node_now("node01")
        assert seen == ["node:node01"]

    def test_kill_process_at_skips_dead(self, cluster):
        proc = make_proc(cluster)
        cluster.failures.kill_process_at(0.5, proc)
        proc.exit("early")
        cluster.run()
        # Already exited cleanly; the injector recorded nothing.
        assert cluster.failures.injected == []

    def test_schedule_object(self, cluster):
        proc = make_proc(cluster)
        schedule = FailureSchedule().crash_node(0.2, "node03")
        schedule.kill_pid(0.3, proc.pid)
        cluster.failures.arm(schedule)
        cluster.run()
        assert not cluster.node("node03").up
        assert not proc.alive

    def test_random_crash_deterministic(self):
        from repro.simenv.cluster import Cluster, ClusterSpec

        times = []
        for _ in range(2):
            cluster = Cluster(ClusterSpec(n_nodes=4, seed=7))
            times.append(cluster.failures.arm_random_node_crash(10.0))
        assert times[0] == times[1]


class TestBenchHarness:
    def test_format_table_alignment(self):
        rows = [
            Row("alpha", {"x": 1.23456, "y": "ok"}),
            Row("beta-long-label", {"x": 42, "y": "nope"}),
        ]
        text = format_table("T", ["x", "y"], rows)
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "alpha" in lines[2] or "alpha" in lines[3]
        # All data lines equal width (aligned columns).
        widths = {len(line) for line in lines[3:]}
        assert len(widths) == 1

    def test_format_table_empty_rows(self):
        text = format_table("empty", ["a"], [])
        assert "empty" in text

    def test_timed_returns_result_and_duration(self):
        from repro.bench.harness import timed

        value, seconds = timed(lambda: "out")
        assert value == "out"
        assert seconds >= 0
