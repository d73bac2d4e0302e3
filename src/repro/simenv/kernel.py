"""Discrete-event kernel: virtual clock, threads, events.

Threads are Python generators driven by the kernel.  A thread yields
:class:`Syscall` objects to block:

* ``Delay(seconds)`` — resume after simulated time elapses.
* ``WaitEvent(event)`` — resume when ``event.fire(value)`` is called;
  the yield expression evaluates to *value*.  ``event.fail(exc)``
  resumes the waiter by raising *exc* inside the generator, so failures
  propagate as ordinary exceptions.
* ``WaitAny(events)`` — resume when the first of several events
  settles; evaluates to ``(index, value, exc)``.
* ``WaitAll(events)`` — resume when every event has fired; evaluates
  to the list of values, or raises the first failure.

Higher layers build blocking operations as generator functions that
``yield``/``yield from`` down to these primitives, SimPy-style.

Scheduling discipline (see docs/SIMULATOR.md): entries execute in
``(time, seq)`` order, where ``seq`` is a monotonically increasing
sequence number shared by the time heap and the same-timestamp *ready
deque*.  Resumes and zero-delay wakeups go onto the ready deque as
plain ``(seq, thread, value, exc)`` tuples — no heap traffic, no
closure allocation — while future wakeups go onto the heap.  Because
both structures carry the global sequence number, the total execution
order is identical to a heap-only kernel.

Determinism: there is no real time anywhere in the scheduling logic,
and time ties are broken by ``seq``, so two runs with the same inputs
schedule identically.
"""

from __future__ import annotations

import heapq
import time as _time
from collections import deque
from typing import Any, Callable, Generator, Iterable

from repro.util.errors import DeadlockError, SimError, SimInterrupt
from repro.util.logging import get_logger

log = get_logger("simenv.kernel")

#: Type of kernel-driven coroutines.
SimGen = Generator["Syscall", Any, Any]


class Syscall:
    """Base class of objects a thread may yield to the kernel."""

    __slots__ = ()


class Delay(Syscall):
    """Block the yielding thread for ``seconds`` of simulated time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        if seconds < 0:
            raise ValueError("cannot delay for negative time")
        self.seconds = seconds

    def __repr__(self) -> str:  # pragma: no cover
        return f"Delay({self.seconds})"


class WaitEvent(Syscall):
    """Block the yielding thread until the event fires (or fails)."""

    __slots__ = ("event",)

    def __init__(self, event: "SimEvent"):
        self.event = event

    def __repr__(self) -> str:  # pragma: no cover
        return f"WaitEvent({self.event.name})"


class WaitAny(Syscall):
    """Block until the first of *events* settles.

    The yield expression evaluates to ``(index, value, exc)`` —
    failures settle the wait too, with ``exc`` set, rather than raising
    in the waiter (callers decide how to treat a losing failure).
    """

    __slots__ = ("events",)

    def __init__(self, events: "list[SimEvent]"):
        self.events = list(events)

    def __repr__(self) -> str:  # pragma: no cover
        return f"WaitAny({', '.join(e.name for e in self.events)})"


class WaitAll(Syscall):
    """Block until every one of *events* has fired.

    The yield expression evaluates to the list of values in event
    order.  If any event fails, the first failure is raised in the
    waiter immediately (remaining events are detached).
    """

    __slots__ = ("events",)

    def __init__(self, events: "list[SimEvent]"):
        self.events = list(events)

    def __repr__(self) -> str:  # pragma: no cover
        return f"WaitAll({', '.join(e.name for e in self.events)})"


class SimEvent:
    """One-shot event: fires once with a value or an exception.

    Threads that wait after the event has already fired resume
    immediately with the stored outcome (future semantics).
    """

    __slots__ = ("name", "_fired", "_value", "_exc", "_waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self._fired = False
        self._value: Any = None
        self._exc: BaseException | None = None
        #: waiters are SimThreads or ``(_MultiWait, index)`` tuples
        self._waiters: list = []

    @property
    def fired(self) -> bool:
        return self._fired

    def fire(self, value: Any = None) -> None:
        if self._fired:
            raise SimError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        self._release()

    def fail(self, exc: BaseException) -> None:
        if self._fired:
            raise SimError(f"event {self.name!r} fired twice")
        self._fired = True
        self._exc = exc
        self._release()

    def _release(self) -> None:
        waiters, self._waiters = self._waiters, []
        value, exc = self._value, self._exc
        for waiter in waiters:
            if type(waiter) is tuple:
                multi, index = waiter
                multi._on_event(index, value, exc)
            else:
                waiter._kernel._resume(waiter, value, exc)

    def _add_waiter(self, thread: "SimThread") -> None:
        if self._fired:
            thread._kernel._resume(thread, self._value, self._exc)
        else:
            self._waiters.append(thread)
            thread._waiting = self

    def _discard_waiter(self, thread: "SimThread") -> None:
        try:
            self._waiters.remove(thread)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover
        state = "fired" if self._fired else f"{len(self._waiters)} waiters"
        return f"<SimEvent {self.name!r} {state}>"


class _MultiWait:
    """One blocked thread's registration across several events
    (WaitAny/WaitAll).

    No watcher threads are involved: the wait registers
    ``(self, index)`` entries directly in each event's waiter list,
    resumes the thread when it settles and detaches the leftovers.
    """

    __slots__ = ("kernel", "mode", "thread", "settled",
                 "remaining", "results", "_regs")

    def __init__(
        self,
        kernel: "Kernel",
        events: "list[SimEvent]",
        mode: str,
        thread: "SimThread",
    ):
        self.kernel = kernel
        self.mode = mode  # "any" | "all"
        self.thread = thread
        self.settled = False
        self.remaining = len(events)
        self.results: list[Any] = [None] * len(events)
        self._regs: list = []
        thread._waiting = self
        if mode == "all" and not events:
            self._complete([], None)
            return
        for i, event in enumerate(events):
            if self.settled:
                break
            if event._fired:
                self._on_event(i, event._value, event._exc)
            else:
                entry = (self, i)
                event._waiters.append(entry)
                self._regs.append((event, entry))

    def _on_event(self, index: int, value: Any, exc: BaseException | None) -> None:
        if self.settled:
            return
        if self.mode == "any":
            self._complete((index, value, exc), None)
        elif exc is not None:
            self._complete(None, exc)
        else:
            self.results[index] = value
            self.remaining -= 1
            if self.remaining == 0:
                self._complete(list(self.results), None)

    def _complete(self, value: Any, exc: BaseException | None) -> None:
        self.settled = True
        self._detach()
        self.kernel._resume(self.thread, value, exc)

    def _detach(self) -> None:
        for event, entry in self._regs:
            if not event._fired:
                try:
                    event._waiters.remove(entry)
                except ValueError:
                    pass
        self._regs = []

    def _discard_waiter(self, thread: "SimThread") -> None:
        # The blocked thread was killed: abandon the whole wait.
        self.settled = True
        self._detach()


class Queue:
    """Unbounded FIFO mailbox with blocking ``get``.

    ``put`` never blocks.  ``get()`` is a generator to be used as
    ``item = yield from queue.get()``.
    """

    def __init__(self, kernel: "Kernel", name: str = ""):
        self._kernel = kernel
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[SimEvent] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().fire(item)
        else:
            self._items.append(item)

    def get(self) -> SimGen:
        if self._items:
            return_value = self._items.popleft()
            if False:  # pragma: no cover - keeps this a generator fn
                yield
            return return_value
        event = SimEvent(f"queue.get:{self.name}")
        self._getters.append(event)
        received = False
        try:
            value = yield WaitEvent(event)
            received = True
            return value
        finally:
            if not received:
                # The getter was abandoned (its thread killed while
                # blocked).  If an item was already routed to it, put
                # the item back at the FRONT of the queue — it was the
                # oldest; otherwise withdraw the stale getter so a
                # future ``put`` does not fire into the void.
                if event.fired:
                    self._items.appendleft(event._value)
                else:
                    try:
                        self._getters.remove(event)
                    except ValueError:
                        pass

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def __len__(self) -> int:
        return len(self._items)


class SimThread:
    """A kernel-scheduled coroutine.

    ``daemon`` threads do not keep the simulation alive and are not
    counted by deadlock detection — the runtime's service loops (orted
    tag servers, coordinator listeners) are daemons.
    """

    def __init__(
        self,
        kernel: "Kernel",
        gen: SimGen,
        name: str = "",
        daemon: bool = False,
    ):
        self._kernel = kernel
        self._gen = gen
        self.tid = kernel._new_tid()
        self.name = name or f"thread-{self.tid}"
        self.daemon = daemon
        self.alive = True
        self.blocked_on: Syscall | None = None
        #: what the thread is registered with while blocked on an
        #: event-shaped wait (a SimEvent or a _MultiWait); kill()
        #: detaches through this uniformly.
        self._waiting: "SimEvent | _MultiWait | None" = None
        self.done = SimEvent(f"done:{self.name}")
        self.result: Any = None

    def kill(self, exc: BaseException | None = None) -> None:
        """Terminate the thread without running further user code.

        Any thread waiting on :attr:`done` is failed with *exc* (or a
        generic :class:`SimError`).  Killing the *currently executing*
        thread (e.g. a process main calling ``proc.exit()``) marks it
        dead but lets its generator unwind naturally.
        """
        if not self.alive:
            return
        self.alive = False
        self._kernel._note_death()
        if self._waiting is not None:
            self._waiting._discard_waiter(self)
            self._waiting = None
        self.blocked_on = None
        if self._kernel._current is self:
            # Self-kill: the generator is executing right now; it will
            # finish via StopIteration and fire `done` itself.
            return
        self._gen.close()
        if not self.done.fired:
            self.done.fail(exc or SimError(f"thread {self.name} killed"))

    def __repr__(self) -> str:  # pragma: no cover
        state = "dead" if not self.alive else (
            f"blocked({self.blocked_on!r})" if self.blocked_on else "runnable"
        )
        return f"<SimThread {self.name} {state}>"


class TimerHandle:
    """Cancellable handle for :meth:`Kernel.call_at` timers.

    There is no O(log n) heap removal, so cancellation is lazy: the
    entry stays queued and is dropped when it surfaces — crucially
    *without advancing the clock*, so an orphaned far-future timer
    (say, a periodic wake-up whose job already settled) cannot drag
    simulated time forward during a final drain.
    """

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class KernelStats:
    """Always-on counter block for the scheduler hot path.

    Counters are plain integer attribute bumps so they are cheap enough
    to keep on unconditionally; ``repro.obs`` exports the block through
    every trace (see docs/SIMULATOR.md for field semantics).
    """

    __slots__ = (
        "events", "ready_hits", "heap_pushes", "heap_pops",
        "peak_heap", "peak_ready", "threads_spawned", "threads_reaped",
        "waits_any", "waits_all", "run_wall_s", "run_cpu_s",
    )

    def __init__(self) -> None:
        self.events = 0          # total entries dispatched by run()
        self.ready_hits = 0      # entries served from the ready deque
        self.heap_pushes = 0
        self.heap_pops = 0
        self.peak_heap = 0
        self.peak_ready = 0
        self.threads_spawned = 0
        self.threads_reaped = 0  # dead threads compacted out of _threads
        self.waits_any = 0
        self.waits_all = 0
        self.run_wall_s = 0.0    # wall-clock spent inside run()
        self.run_cpu_s = 0.0     # process CPU time spent inside run()

    #: counters that add across kernels when stats blocks are merged
    _SUM_FIELDS = (
        "events", "ready_hits", "heap_pushes", "heap_pops",
        "threads_spawned", "threads_reaped", "waits_any", "waits_all",
        "run_wall_s", "run_cpu_s",
    )
    #: high-water marks: the fleet-wide peak is the max of the peaks
    _MAX_FIELDS = ("peak_heap", "peak_ready")

    def merge(self, other: "KernelStats | dict") -> "KernelStats":
        """Fold another stats block into this one.

        Counters add, peaks take the max, and the derived rates
        (``events_per_sec`` / ``events_per_cpu_sec``) recompute on
        export from the summed totals — so a fleet of per-process
        kernels aggregates into one block whose events-per-CPU-second
        is the fleet-wide throughput.  Accepts a live block or its
        :meth:`to_dict` export (fleet workers ship dicts across the
        process boundary); derived keys in a dict input are ignored.
        """
        data = other if isinstance(other, dict) else other.to_dict()
        for name in self._SUM_FIELDS:
            setattr(self, name, getattr(self, name) + data.get(name, 0))
        for name in self._MAX_FIELDS:
            setattr(self, name, max(getattr(self, name), data.get(name, 0)))
        return self

    def to_dict(self) -> dict:
        wall = self.run_wall_s
        cpu = self.run_cpu_s
        return {
            "events": self.events,
            "ready_hits": self.ready_hits,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "peak_heap": self.peak_heap,
            "peak_ready": self.peak_ready,
            "threads_spawned": self.threads_spawned,
            "threads_reaped": self.threads_reaped,
            "waits_any": self.waits_any,
            "waits_all": self.waits_all,
            "run_wall_s": wall,
            "run_cpu_s": cpu,
            "events_per_sec": (self.events / wall) if wall > 0 else 0.0,
            # CPU-time variant: immune to co-tenant scheduling noise,
            # so benchmarks gate on this (the simulator is one CPU-bound
            # thread — process time *is* the work done)
            "events_per_cpu_sec": (self.events / cpu) if cpu > 0 else 0.0,
        }


class Kernel:
    """The discrete-event scheduler."""

    def __init__(self) -> None:
        from repro.obs.trace import TraceRecorder

        self.now: float = 0.0
        self._pq: list[tuple] = []
        #: same-timestamp run queue: (seq, thread, value, exc)
        self._ready: deque[tuple] = deque()
        self._seq = 0
        self._tid = 0
        self._pid = 999
        self._id_counters: dict[str, int] = {}
        self._threads: list[SimThread] = []
        self._dead = 0
        self._running = False
        self._current: "SimThread | None" = None
        self.stats = KernelStats()
        #: optional trace callback ``(time, thread_name, event_str)``
        self.trace: Callable[[float, str, str], None] | None = None
        #: structured span/counter recorder (disabled by default; every
        #: layer reaches it via ``proc.kernel.tracer``)
        self.tracer = TraceRecorder(self)

    # -- scheduling primitives ---------------------------------------------

    def call_at(self, when: float, fn: Callable[[], None]) -> "TimerHandle":
        if when < self.now:
            raise SimError(f"cannot schedule in the past ({when} < {self.now})")
        handle = TimerHandle(fn)
        self._push(when, handle)
        return handle

    def call_later(self, delay: float, fn: Callable[[], None]) -> "TimerHandle":
        return self.call_at(self.now + delay, fn)

    def _push(self, when: float, item: Any) -> None:
        """Heap-schedule *item* (a callable, or a SimThread to wake)."""
        heapq.heappush(self._pq, (when, self._seq, item))
        self._seq += 1
        stats = self.stats
        stats.heap_pushes += 1
        if len(self._pq) > stats.peak_heap:
            stats.peak_heap = len(self._pq)

    def _ready_push(
        self, thread: SimThread, value: Any, exc: BaseException | None
    ) -> None:
        """Queue a same-timestamp wakeup, bypassing the heap."""
        self._ready.append((self._seq, thread, value, exc))
        self._seq += 1
        if len(self._ready) > self.stats.peak_ready:
            self.stats.peak_ready = len(self._ready)

    def event(self, name: str = "") -> SimEvent:
        return SimEvent(name)

    def queue(self, name: str = "") -> Queue:
        return Queue(self, name)

    @property
    def pending(self) -> bool:
        """True while anything remains scheduled (heap or ready deque)."""
        return bool(self._pq or self._ready)

    # -- threads ------------------------------------------------------------

    def _new_tid(self) -> int:
        self._tid += 1
        return self._tid

    def new_pid(self) -> int:
        """Deterministic per-kernel pid allocator (see SimProcess).

        A module-global counter would leak across universes in one
        session: pid digits appear in process labels, labels appear in
        pickled messages, and message *sizes* drive transfer times — so
        a shared counter makes same-seed runs drift by fractions of a
        microsecond.
        """
        self._pid += 1
        return self._pid

    def next_id(self, scope: str) -> int:
        """Deterministic kernel-scoped counter (1, 2, 3, ... per scope).

        For ids that end up inside simulated messages (rpc correlation
        ids, tool names): the same-seed-same-schedule guarantee requires
        them to restart with every universe, never drift with a module
        global.
        """
        n = self._id_counters.get(scope, 0) + 1
        self._id_counters[scope] = n
        return n

    def spawn(self, gen: SimGen, name: str = "", daemon: bool = False) -> SimThread:
        thread = SimThread(self, gen, name=name, daemon=daemon)
        self._threads.append(thread)
        self.stats.threads_spawned += 1
        self._resume(thread, None, None)
        return thread

    def _note_death(self) -> None:
        """Account one thread death; periodically reap the dead.

        Compaction keeps :attr:`_threads` (and with it the deadlock
        scan) bounded by the number of *live* threads instead of every
        thread ever spawned — long campaign sweeps create millions.
        """
        self._dead += 1
        if self._dead >= 64 and self._dead * 2 >= len(self._threads):
            alive = [t for t in self._threads if t.alive]
            self.stats.threads_reaped += len(self._threads) - len(alive)
            self._threads = alive
            self._dead = 0

    def _resume(
        self, thread: SimThread, value: Any, exc: BaseException | None
    ) -> None:
        thread.blocked_on = None
        thread._waiting = None
        self._ready_push(thread, value, exc)

    def _block(self, thread: SimThread, syscall: Any) -> None:
        """Register *thread* with what it yielded, past the run loop's
        fast paths (a bare ``Delay`` or ``WaitEvent``)."""
        if isinstance(syscall, Delay):
            if syscall.seconds == 0.0:
                self._ready_push(thread, None, None)
            else:
                self._push(self.now + syscall.seconds, thread)
        elif isinstance(syscall, WaitEvent):
            syscall.event._add_waiter(thread)
        elif isinstance(syscall, WaitAny):
            self.stats.waits_any += 1
            _MultiWait(self, syscall.events, "any", thread)
        elif isinstance(syscall, WaitAll):
            self.stats.waits_all += 1
            _MultiWait(self, syscall.events, "all", thread)
        else:
            error = SimError(f"thread {thread.name} yielded non-syscall {syscall!r}")
            self._ready_push(thread, None, error)

    def _finish(self, thread: SimThread, result: Any, err: BaseException | None) -> None:
        """*thread*'s generator returned *result* or raised *err*."""
        if thread.alive:
            thread.alive = False
            self._note_death()
        thread.result = result
        if not thread.done.fired:
            thread.done.fire(result) if err is None else thread.done.fail(err)
        if self.trace:
            self.trace(self.now, thread.name, "exit" if err is None else f"crash:{type(err).__name__}")

    @staticmethod
    def _deadlock(threads: "Iterable[SimThread]") -> DeadlockError:
        """Name each blocked thread and what it waits on."""
        threads = list(threads)
        return DeadlockError(
            [t.name for t in threads], [f"{t.name} \u2190 {t.blocked_on!r}" for t in threads]
        )

    # -- run loop -------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Drain the event queue; return the final simulated time.

        One step body serves ready-deque and heap entries alike; the
        hot counters live in locals and reach :attr:`stats` when the
        run returns (or raises).  Raises :class:`DeadlockError` if
        non-daemon threads remain blocked with nothing left to schedule.
        """
        if self._running:
            raise SimError("kernel.run() is not reentrant")
        self._running = True
        pq = self._pq
        ready = self._ready
        stats = self.stats
        heappush, heappop = heapq.heappush, heapq.heappop
        events = ready_hits = heap_pops = heap_pushes = 0
        peak_heap = stats.peak_heap
        wall0 = _time.perf_counter()
        cpu0 = _time.process_time()
        try:
            while pq or ready:
                # Global (time, seq) order: the ready deque holds only
                # entries stamped at the current time, so the heap wins
                # only when its head is due *now* with a smaller seq.
                if ready and not (
                    pq and pq[0][0] <= self.now and pq[0][1] < ready[0][0]
                ):
                    _, thread, value, exc = ready.popleft()
                    events += 1
                    ready_hits += 1
                else:
                    entry = heappop(pq)
                    when, _, thread = entry
                    kind = type(thread)
                    if kind is TimerHandle and thread.cancelled:
                        # Lazy-cancelled timer: drop it with the clock
                        # untouched (see TimerHandle).
                        heap_pops += 1
                        continue
                    if until is not None and when > until:
                        # Re-push untouched: the original seq keeps the
                        # tie-break invariant self-evident across pauses.
                        heappush(pq, entry)
                        heap_pushes += 1
                        self.now = until
                        return until
                    self.now = when
                    events += 1
                    heap_pops += 1
                    if kind is not SimThread:
                        thread.fn() if kind is TimerHandle else thread()
                        continue
                    value = exc = None
                if not thread.alive:
                    continue
                thread.blocked_on = None
                self._current = thread
                try:
                    if exc is not None:
                        syscall = thread._gen.throw(exc)
                    else:
                        syscall = thread._gen.send(value)
                except StopIteration as stop:
                    self._finish(thread, stop.value, None)
                    continue
                except (SimInterrupt, KeyboardInterrupt, SystemExit):
                    # Out-of-band interrupts (wall-clock watchdogs,
                    # Ctrl-C) abort the whole run — they are not a crash
                    # of whichever thread they happened to land in.
                    raise
                except BaseException as err:  # noqa: BLE001 - anything else is this thread crashing
                    self._finish(thread, None, err)
                    continue
                finally:
                    self._current = None
                thread.blocked_on = syscall
                kind = type(syscall)
                if kind is Delay and syscall.seconds != 0.0:
                    heappush(pq, (self.now + syscall.seconds, self._seq, thread))
                    self._seq += 1
                    heap_pushes += 1
                    if len(pq) > peak_heap:
                        peak_heap = len(pq)
                elif kind is WaitEvent:
                    syscall.event._add_waiter(thread)
                else:
                    self._block(thread, syscall)
            blocked = [
                t for t in self._threads
                if t.alive and not t.daemon and t.blocked_on is not None
            ]
            if blocked:
                raise self._deadlock(blocked)
            return self.now
        finally:
            self._running = False
            stats.events += events
            stats.ready_hits += ready_hits
            stats.heap_pops += heap_pops
            stats.heap_pushes += heap_pushes
            stats.peak_heap = max(stats.peak_heap, peak_heap)
            stats.run_wall_s += _time.perf_counter() - wall0
            stats.run_cpu_s += _time.process_time() - cpu0

    def run_until_complete(self, threads: "SimThread | Iterable[SimThread]") -> Any:
        """Run until the given thread(s) finish; return last result.

        Unlike :meth:`run`, daemon service loops blocked forever do not
        matter — but if the queue drains before the threads complete a
        :class:`DeadlockError` is raised.
        """
        if isinstance(threads, SimThread):
            targets = [threads]
        else:
            targets = list(threads)
        while any(t.alive for t in targets):
            if not self.pending:
                raise self._deadlock(t for t in targets if t.alive)
            self.run()
        result = None
        for t in targets:
            if t.done._exc is not None:
                raise t.done._exc
            result = t.result
        return result

    def stats_snapshot(self) -> dict:
        """The :class:`KernelStats` block plus live/dead thread counts."""
        out = self.stats.to_dict()
        live = sum(1 for t in self._threads if t.alive)
        out["threads_live"] = live
        out["threads_dead"] = len(self._threads) - live
        return out

