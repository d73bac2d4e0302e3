"""Exception hierarchy for the ``repro`` stack.

The hierarchy mirrors the layering of the system: simulation-kernel
errors, network/storage substrate errors, MPI semantic errors, and
fault-tolerance (checkpoint/restart) errors.  Everything derives from
:class:`ReproError` so callers can catch the whole family.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro stack."""


# --------------------------------------------------------------------------
# MCA (Modular Component Architecture)
# --------------------------------------------------------------------------


class MCAError(ReproError):
    """Base class for component-architecture errors."""


class ComponentNotFoundError(MCAError):
    """A component was requested by name but is not registered."""

    def __init__(self, framework: str, component: str):
        super().__init__(
            f"framework {framework!r} has no component named {component!r}"
        )
        self.framework = framework
        self.component = component


class ComponentSelectError(MCAError):
    """No component of a framework was selectable at open time."""


# --------------------------------------------------------------------------
# Simulation kernel
# --------------------------------------------------------------------------


class SimError(ReproError):
    """Base class for discrete-event kernel errors."""


class DeadlockError(SimError):
    """The event queue drained while runnable work remained blocked.

    Raised by the kernel when simulation cannot make progress: every
    live thread is waiting on a condition that no pending event can
    satisfy (e.g. a ``recv`` with no matching ``send`` anywhere).
    """

    def __init__(self, blocked: list[str], waits: list[str] | None = None):
        # *waits*: one "name ← syscall" per blocked thread, for the message
        super().__init__(
            "simulation deadlock; blocked threads: " + ", ".join(waits or blocked)
        )
        self.blocked = blocked


class ProcessFailedError(SimError):
    """An operation touched a process that has been killed or crashed."""


class SimInterrupt(BaseException):
    """Out-of-band interrupt of a simulation run.

    Deliberately *not* a :class:`ReproError`: the kernel treats any
    exception escaping a thread step as that thread crashing, but a
    wall-clock watchdog (or Ctrl-C) that fires mid-step is aimed at
    the whole run, not at whichever thread it happened to land in.
    Subclasses pass straight through ``Kernel.run()`` to the caller.
    """


# --------------------------------------------------------------------------
# Substrates
# --------------------------------------------------------------------------


class NetworkError(ReproError):
    """Transport-level failure (down link, dead NIC, closed channel)."""


class VFSError(ReproError):
    """Simulated-filesystem failure (missing file, bad path, dead node)."""


# --------------------------------------------------------------------------
# MPI semantics
# --------------------------------------------------------------------------


class MPIError(ReproError):
    """MPI semantic error (bad rank, bad communicator, use before init)."""


class TruncationError(MPIError):
    """A received message was longer than the posted receive buffer."""


# --------------------------------------------------------------------------
# Fault tolerance
# --------------------------------------------------------------------------


class CheckpointError(ReproError):
    """A checkpoint request could not be completed."""


class NotCheckpointableError(CheckpointError):
    """A target process has checkpointing disabled.

    Per the paper (section 5.1), if *any* process in a checkpoint
    request cannot be checkpointed the user is notified and *no*
    participating process is affected.
    """

    def __init__(self, names: list[str]):
        super().__init__(
            "processes not checkpointable: " + ", ".join(names)
        )
        self.names = names


class RestartError(ReproError):
    """A restart request could not be completed."""


class SnapshotError(ReproError):
    """A snapshot reference is missing, malformed, or inconsistent."""


class LaunchError(ReproError):
    """The runtime failed to launch a job or daemon."""
