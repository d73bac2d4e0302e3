"""Simulated OS process: a named container of kernel threads on a node.

Mirrors the paper's process model: an application process hosts its
main (application) thread plus a *checkpoint notification thread*
(paper section 6.5) spawned by the OPAL layer.  Daemon processes
(orteds, mpirun) host service-loop threads.

A process exposes a picklable ``env`` dict (its "environment block"),
an OS-like pid, and kill semantics that fail every thread inside it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.simenv.kernel import SimGen, SimThread
from repro.util.errors import ProcessFailedError, SimInterrupt
from repro.util.ids import ProcessName

if TYPE_CHECKING:  # pragma: no cover
    from repro.simenv.kernel import Kernel
    from repro.simenv.node import Node

class SimProcess:
    """One simulated OS process."""

    def __init__(
        self,
        node: "Node",
        name: ProcessName,
        label: str = "",
    ):
        self.node = node
        self.kernel: "Kernel" = node.kernel
        self.name = name
        self.pid = self.kernel.new_pid()
        self.label = label or f"proc{self.pid}"
        self.alive = True
        self.exit_event = self.kernel.event(f"exit:{self.label}")
        self.threads: list[SimThread] = []
        #: free-form environment; launch parameters land here
        self.env: dict[str, Any] = {}
        #: services registered by layers (opal/orte/ompi attach here)
        self.services: dict[str, Any] = {}
        node.attach(self)

    # -- threads ------------------------------------------------------------

    def spawn_thread(
        self, gen: SimGen, name: str = "", daemon: bool = False
    ) -> SimThread:
        if not self.alive:
            raise ProcessFailedError(f"{self.label} is dead")
        thread = self.kernel.spawn(
            gen, name=f"{self.label}/{name or 'main'}", daemon=daemon
        )
        self.threads.append(thread)
        # Long-lived daemons (orteds) spawn a thread per RPC served;
        # compact finished ones so the list stays bounded by live work.
        if len(self.threads) >= 32:
            live = [t for t in self.threads if t.alive]
            if len(live) * 2 <= len(self.threads):
                self.threads = live
        return thread

    @property
    def live_threads(self) -> list[SimThread]:
        return [t for t in self.threads if t.alive]

    def handler(self, fn: Callable[[Any], None]) -> Callable[[Any], None]:
        """Wrap *fn* as a transport handler owned by this process
        (``Fabric.attach_handler``): it runs inside a kernel timer, not
        a thread, so the thread rules are restated here — a dead
        process handles nothing, and an exception kills the process
        instead of escaping ``Kernel.run``."""

        def handle(dgram: Any) -> None:
            if not self.alive:
                return
            try:
                fn(dgram)
            except (SimInterrupt, KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001 - a handler's crash is its process dying
                self.kill(exc)

        return handle

    # -- lifecycle ---------------------------------------------------------

    def exit(self, result: Any = None) -> None:
        """Clean process exit: kill remaining threads, fire exit event."""
        if not self.alive:
            return
        self.alive = False
        for thread in list(self.threads):
            thread.kill()
        self.node.detach(self)
        if not self.exit_event.fired:
            self.exit_event.fire(result)

    def kill(self, exc: BaseException | None = None) -> None:
        """Abnormal termination (signal/crash)."""
        if not self.alive:
            return
        self.alive = False
        error = exc or ProcessFailedError(f"{self.label} killed")
        for thread in list(self.threads):
            thread.kill(error)
        self.node.detach(self)
        if not self.exit_event.fired:
            self.exit_event.fail(error)

    # -- service registry ------------------------------------------------------

    def register_service(self, key: str, service: Any) -> None:
        if key in self.services:
            raise ValueError(f"{self.label}: service {key!r} already registered")
        self.services[key] = service

    def service(self, key: str) -> Any:
        try:
            return self.services[key]
        except KeyError:
            raise KeyError(
                f"{self.label}: no service {key!r} "
                f"(have: {', '.join(sorted(self.services)) or 'none'})"
            ) from None

    def maybe_service(self, key: str) -> Any | None:
        return self.services.get(key)

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.alive else "dead"
        return f"<SimProcess {self.label} {self.name} pid={self.pid} {state}>"


def run_process_main(
    proc: SimProcess, main: Callable[[], SimGen], name: str = "main"
) -> SimThread:
    """Spawn *main* as the process's primary thread.

    When the main thread returns, the process exits cleanly with the
    thread's return value; if it raises, the process dies with that
    error.
    """

    def wrapper() -> SimGen:
        try:
            result = yield from main()
        except GeneratorExit:
            raise
        except SimInterrupt:
            # Out-of-band interrupt of the whole run (wall-clock
            # watchdog): not this process dying — let it abort run().
            raise
        except BaseException as exc:  # noqa: BLE001 - whatever main() raises is this process dying
            proc.kill(exc)
            return None
        proc.exit(result)
        return result

    return proc.spawn_thread(wrapper(), name=name)
