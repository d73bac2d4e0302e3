"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simenv.kernel import (
    Delay,
    Kernel,
    WaitAll,
    WaitAny,
    WaitEvent,
)
from repro.util.errors import DeadlockError, SimError
from tests.conftest import run_gen


class TestClockAndScheduling:
    def test_time_starts_at_zero(self, kernel):
        assert kernel.now == 0.0

    def test_call_later_ordering(self, kernel):
        seen = []
        kernel.call_later(0.2, lambda: seen.append("b"))
        kernel.call_later(0.1, lambda: seen.append("a"))
        kernel.run()
        assert seen == ["a", "b"]
        assert kernel.now == pytest.approx(0.2)

    def test_ties_broken_fifo(self, kernel):
        seen = []
        for i in range(5):
            kernel.call_at(1.0, lambda i=i: seen.append(i))
        kernel.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_cannot_schedule_in_past(self, kernel):
        kernel.call_later(1.0, lambda: None)
        kernel.run()
        with pytest.raises(SimError):
            kernel.call_at(0.5, lambda: None)

    def test_run_until_pauses(self, kernel):
        seen = []
        kernel.call_at(1.0, lambda: seen.append(1))
        kernel.call_at(3.0, lambda: seen.append(3))
        kernel.run(until=2.0)
        assert seen == [1]
        assert kernel.now == 2.0
        kernel.run()
        assert seen == [1, 3]


class TestThreads:
    def test_delay_advances_clock(self, kernel):
        def main():
            yield Delay(0.5)
            return "done"

        assert run_gen(kernel, main()) == "done"
        assert kernel.now == pytest.approx(0.5)

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(ValueError):
            Delay(-1)

    def test_event_fire_value(self, kernel):
        event = kernel.event("e")

        def waiter():
            value = yield WaitEvent(event)
            return value

        thread = kernel.spawn(waiter(), "w")
        kernel.call_later(0.1, lambda: event.fire(42))
        kernel.run()
        assert thread.result == 42

    def test_event_fail_raises_in_waiter(self, kernel):
        event = kernel.event("e")

        def waiter():
            try:
                yield WaitEvent(event)
            except RuntimeError as exc:
                return f"caught {exc}"

        thread = kernel.spawn(waiter(), "w")
        kernel.call_later(0.1, lambda: event.fail(RuntimeError("boom")))
        kernel.run()
        assert thread.result == "caught boom"

    def test_wait_on_already_fired_event(self, kernel):
        event = kernel.event("e")
        event.fire("early")

        def waiter():
            value = yield WaitEvent(event)
            return value

        assert run_gen(kernel, waiter()) == "early"

    def test_event_fires_once(self, kernel):
        event = kernel.event("e")
        event.fire(1)
        with pytest.raises(SimError):
            event.fire(2)
        with pytest.raises(SimError):
            event.fail(RuntimeError())

    def test_non_syscall_yield_is_error(self, kernel):
        def bad():
            yield "not a syscall"

        thread = kernel.spawn(bad(), "bad")
        kernel.run()
        assert not thread.alive
        assert thread.done.fired

    def test_thread_exception_fails_done(self, kernel):
        def bad():
            yield Delay(0.1)
            raise ValueError("oops")

        thread = kernel.spawn(bad(), "bad")
        kernel.run()
        with pytest.raises(ValueError):
            run_gen(kernel, _reraise(thread))


def _reraise(thread):
    value = yield WaitEvent(thread.done)
    return value


class TestKill:
    def test_kill_blocked_thread(self, kernel):
        event = kernel.event("never")

        def waiter():
            yield WaitEvent(event)

        thread = kernel.spawn(waiter(), "w")
        kernel.call_later(0.1, thread.kill)
        kernel.run()
        assert not thread.alive
        assert thread.done.fired

    def test_kill_is_idempotent(self, kernel):
        def sleeper():
            yield Delay(10)

        thread = kernel.spawn(sleeper(), "s")
        kernel.call_later(0.1, thread.kill)
        kernel.call_later(0.2, thread.kill)
        kernel.run()
        assert not thread.alive

    def test_self_kill_allows_clean_return(self, kernel):
        """A thread may mark itself dead (process exit) and still return."""

        def main():
            yield Delay(0.1)
            thread.kill()
            return "clean"

        thread = kernel.spawn(main(), "m")
        kernel.run()
        assert thread.result == "clean"
        assert thread.done.fired


class TestDeadlockDetection:
    def test_blocked_nondaemon_is_deadlock(self, kernel):
        event = kernel.event("never")

        def waiter():
            yield WaitEvent(event)

        kernel.spawn(waiter(), "stuck")
        with pytest.raises(DeadlockError) as info:
            kernel.run()
        assert "stuck" in info.value.blocked
        # the message says what each blocked thread waits on
        assert str(info.value).endswith("stuck \u2190 WaitEvent(never)")

    def test_blocked_daemon_is_not_deadlock(self, kernel):
        event = kernel.event("never")

        def waiter():
            yield WaitEvent(event)

        kernel.spawn(waiter(), "service", daemon=True)
        kernel.run()  # must not raise


class TestQueue:
    def test_fifo(self, kernel):
        queue = kernel.queue("q")
        queue.put(1)
        queue.put(2)

        def getter():
            a = yield from queue.get()
            b = yield from queue.get()
            return (a, b)

        assert run_gen(kernel, getter()) == (1, 2)

    def test_blocking_get(self, kernel):
        queue = kernel.queue("q")

        def getter():
            value = yield from queue.get()
            return value

        thread = kernel.spawn(getter(), "g")
        kernel.call_later(0.3, lambda: queue.put("late"))
        kernel.run()
        assert thread.result == "late"
        assert kernel.now == pytest.approx(0.3)

    def test_try_get(self, kernel):
        queue = kernel.queue("q")
        assert queue.try_get() == (False, None)
        queue.put(9)
        assert queue.try_get() == (True, 9)
        assert len(queue) == 0

    def test_killed_getter_does_not_swallow_items(self, kernel):
        """Regression: a stale getter left by a killed thread must not
        consume a later put (this lost MPI frames at BTL pump pause)."""
        queue = kernel.queue("q")

        def getter():
            value = yield from queue.get()
            return value

        doomed = kernel.spawn(getter(), "doomed")
        kernel.call_later(0.1, doomed.kill)
        kernel.call_later(0.2, lambda: queue.put("precious"))
        survivor = kernel.spawn(getter(), "survivor")
        kernel.call_later(0.15, lambda: None)  # keep ordering explicit
        kernel.run()
        assert survivor.result == "precious"

    def test_kill_racing_fired_getter_requeues_item(self, kernel):
        """If the item was already routed to a getter whose thread is
        killed before it runs, the item goes back to the queue front."""
        queue = kernel.queue("q")

        def getter():
            value = yield from queue.get()
            return value

        doomed = kernel.spawn(getter(), "doomed")

        def put_and_kill():
            queue.put("survivor-item")  # fires doomed's getter event
            doomed.kill()  # killed before its resume step runs

        kernel.call_later(0.1, put_and_kill)
        kernel.run()
        assert len(queue) == 1
        late = kernel.spawn(getter(), "late")
        kernel.run()
        assert late.result == "survivor-item"

    def test_multiple_getters_fifo(self, kernel):
        queue = kernel.queue("q")
        results = []

        def getter(tag):
            value = yield from queue.get()
            results.append((tag, value))

        kernel.spawn(getter("first"), "g1")
        kernel.spawn(getter("second"), "g2")
        kernel.call_later(0.1, lambda: queue.put("a"))
        kernel.call_later(0.2, lambda: queue.put("b"))
        kernel.run()
        assert results == [("first", "a"), ("second", "b")]


class TestDeterminism:
    def test_identical_runs_schedule_identically(self):
        def build_and_run():
            kernel = Kernel()
            trace = []
            kernel.trace = lambda t, name, ev: trace.append((round(t, 9), name, ev))

            def worker(tag, delay):
                yield Delay(delay)
                return tag

            for i in range(10):
                kernel.spawn(worker(i, 0.01 * (i % 3 + 1)), f"w{i}")
            kernel.run()
            return trace

        assert build_and_run() == build_and_run()


class TestWaitSyscalls:
    """Native WaitAny/WaitAll: thread-less multi-event blocking."""

    def test_waitany_reports_winner(self, kernel):
        events = [kernel.event("slow"), kernel.event("fast")]
        kernel.call_later(0.2, lambda: events[0].fire("s"))
        kernel.call_later(0.1, lambda: events[1].fire("f"))

        def waiter():
            outcome = yield WaitAny(events)
            return outcome

        assert run_gen(kernel, waiter()) == (1, "f", None)
        # only the one waiter thread exists; no per-event watchers
        assert kernel.stats.threads_spawned == 1
        assert kernel.stats.waits_any == 1 and kernel.stats.waits_all == 0

    def test_waitany_captures_failure(self, kernel):
        events = [kernel.event("a"), kernel.event("b")]
        kernel.call_later(0.1, lambda: events[0].fail(ValueError("v")))

        def waiter():
            outcome = yield WaitAny(events)
            return outcome

        index, value, exc = run_gen(kernel, waiter())
        assert index == 0 and value is None and isinstance(exc, ValueError)

    def test_waitany_already_fired(self, kernel):
        events = [kernel.event("a"), kernel.event("b")]
        events[1].fire("early")

        def waiter():
            outcome = yield WaitAny(events)
            return outcome

        assert run_gen(kernel, waiter()) == (1, "early", None)

    def test_waitall_collects_in_order(self, kernel):
        events = [kernel.event(f"e{i}") for i in range(3)]
        # fire out of order; results must come back in event order
        kernel.call_later(0.3, lambda: events[0].fire(0))
        kernel.call_later(0.1, lambda: events[1].fire(10))
        kernel.call_later(0.2, lambda: events[2].fire(20))

        def waiter():
            values = yield WaitAll(events)
            return values

        assert run_gen(kernel, waiter()) == [0, 10, 20]
        assert kernel.stats.threads_spawned == 1
        assert kernel.stats.waits_all == 1 and kernel.stats.waits_any == 0

    def test_waitall_empty_completes_immediately(self, kernel):
        def waiter():
            values = yield WaitAll([])
            return values

        assert run_gen(kernel, waiter()) == []

    def test_waitall_raises_first_failure(self, kernel):
        events = [kernel.event("a"), kernel.event("b")]
        kernel.call_later(0.1, lambda: events[0].fail(RuntimeError("x")))
        kernel.call_later(0.2, lambda: events[1].fire(1))

        def waiter():
            try:
                yield WaitAll(events)
            except RuntimeError:
                return "failed"

        assert run_gen(kernel, waiter()) == "failed"

    def test_waitall_duplicate_events(self, kernel):
        event = kernel.event("dup")
        kernel.call_later(0.1, lambda: event.fire(7))

        def waiter():
            values = yield WaitAll([event, event])
            return values

        assert run_gen(kernel, waiter()) == [7, 7]

    def test_kill_detaches_multiwait(self, kernel):
        events = [kernel.event("a"), kernel.event("b")]

        def waiter():
            yield WaitAny(events)

        thread = kernel.spawn(waiter(), "w")
        kernel.call_later(0.1, thread.kill)
        kernel.run()
        assert not thread.alive
        assert events[0]._waiters == [] and events[1]._waiters == []


class TestKernelStats:
    def test_ready_path_bypasses_heap(self, kernel):
        def chatty():
            for _ in range(50):
                yield Delay(0)
            return "done"

        run_gen(kernel, chatty())
        assert kernel.stats.ready_hits >= 50
        # zero-delay wakeups must not touch the heap
        assert kernel.stats.heap_pushes < 10

    def test_snapshot_shape(self, kernel):
        def main():
            yield Delay(0.1)

        run_gen(kernel, main())
        snap = kernel.stats_snapshot()
        for key in (
            "events", "ready_hits", "heap_pushes", "heap_pops",
            "peak_heap", "peak_ready", "threads_spawned",
            "threads_reaped", "threads_live", "threads_dead",
            "waits_any", "waits_all", "run_wall_s", "events_per_sec",
        ):
            assert key in snap, key
        assert snap["events"] > 0
        assert snap["threads_live"] == 0


class TestThreadReaping:
    def test_dead_threads_are_compacted(self, kernel):
        def short():
            yield Delay(0.001)

        for i in range(1000):
            kernel.spawn(short(), f"s{i}")
        kernel.run()
        assert kernel.stats.threads_spawned == 1000
        assert kernel.stats.threads_reaped > 0
        # the registry must not retain every thread ever spawned
        assert len(kernel._threads) < 200

    def test_live_threads_survive_compaction(self, kernel):
        gate = kernel.event("gate")

        def short():
            yield Delay(0.001)

        def long_lived():
            yield WaitEvent(gate)
            return "kept"

        keeper = kernel.spawn(long_lived(), "keeper")
        for i in range(500):
            kernel.spawn(short(), f"s{i}")
        kernel.call_later(1.0, lambda: gate.fire(None))
        kernel.run()
        assert keeper.result == "kept"


class TestPerKernelIds:
    def test_tids_deterministic_across_kernels(self):
        """Satellite: ids must restart per kernel, not share a global
        iterator across every kernel the test session creates."""

        def collect():
            kernel = Kernel()

            def noop():
                yield Delay(0)

            return [kernel.spawn(noop(), "t").tid for _ in range(3)]

        assert collect() == [1, 2, 3]
        assert collect() == [1, 2, 3]


class TestRunUntilSeqPreserved:
    def test_truncated_entry_keeps_original_seq(self, kernel):
        kernel.call_later(1.0, lambda: None)  # seq 0, executes
        kernel.call_later(3.0, lambda: None)  # seq 1, truncated
        kernel.call_later(3.0, lambda: None)  # seq 2
        kernel.run(until=2.0)
        seqs = sorted(entry[1] for entry in kernel._pq)
        assert seqs == [1, 2]
