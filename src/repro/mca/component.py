"""MCA component base class.

A *component* is one concrete implementation of a framework's API.
Components carry:

* ``name`` — the selection key (``--mca <framework> <name>``),
* ``priority`` — used when no component is forced: the openable
  component with the highest priority wins,
* ``query()`` — availability probe; a component may decline to run in
  the current environment (e.g. the ``ib`` BTL declines when the node
  has no InfiniBand NIC).

Framework base classes subclass :class:`Component` to add their API
(e.g. ``CRSComponent.checkpoint(...)``), and concrete components
subclass those.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.mca.params import MCAParams


class Component:
    """Base class for all MCA components."""

    #: Framework this component belongs to (e.g. ``"crs"``).
    framework_name: str = ""
    #: Selection key of the component (e.g. ``"simcr"``).
    name: str = ""
    #: Selection priority; higher wins when nothing is forced.
    priority: int = 0
    #: Component version, recorded in snapshot metadata.
    version: str = "1.0.0"

    def __init__(self, params: "MCAParams | None" = None):
        from repro.mca.params import MCAParams

        self.params = params if params is not None else MCAParams()
        self._opened = False

    # -- lifecycle -----------------------------------------------------------

    def query(self, context: object | None = None) -> bool:
        """Return True if this component can run in *context*.

        The default is unconditionally available.  Components that
        depend on environment features (hardware, services) override
        this — returning False removes the component from selection
        without error.
        """
        return True

    def open(self, context: object | None = None) -> None:
        """Initialize the component.  Called once, before first use."""
        self._opened = True

    def close(self) -> None:
        """Release component resources.  Idempotent."""
        self._opened = False

    @property
    def is_open(self) -> bool:
        return self._opened

    # -- ft_event ------------------------------------------------------------

    def ft_event(self, state: int) -> None:
        """Fault-tolerance notification hook (paper section 5.5).

        Every framework component may be notified around
        checkpoint/restart requests.  ``state`` is one of the
        ``repro.core.ft_event.FTState`` values.  The default is a
        no-op; components owning external state (network endpoints,
        file handles) override it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.framework_name}:{self.name}>"


def component_of(framework: str, name: str, priority: int = 0):
    """Class decorator setting component identity fields.

    Example::

        @component_of("crs", "simcr", priority=20)
        class SimCRComponent(CRSComponent): ...
    """

    def decorate(cls):
        cls.framework_name = framework
        cls.name = name
        cls.priority = priority
        return cls

    return decorate
