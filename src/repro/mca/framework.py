"""MCA framework: a named internal API plus its registered components.

A framework is opened against an *MCA parameter set* and a *context*
(usually the process or layer object it serves).  Opening runs
component selection:

1. If ``params[<framework>]`` names a component, that component must be
   available (``query() == True``) or selection fails loudly — a forced
   component that cannot run is a user error, mirroring Open MPI.
2. Otherwise all registered components are queried and the available
   one with the highest priority is selected.

The selected component is exposed as ``framework.module`` (Open MPI
vocabulary for "the selected component's function table").
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from repro.mca.params import MCAParams
from repro.util.errors import ComponentNotFoundError, ComponentSelectError
from repro.util.logging import get_logger

C = TypeVar("C")

log = get_logger("mca.framework")


class Framework(Generic[C]):
    """A framework with runtime-selectable components.

    ``Framework`` instances are lightweight and per-process: each
    simulated process opens its own framework instances so component
    state is process-local (as in Open MPI, where components live in
    each MPI process).
    """

    def __init__(self, name: str, default: str = "", help: str = ""):
        self.name = name
        self.default, self.help = default, help  # of the selector key, for ompi-info
        self._factories: dict[str, Callable[[MCAParams], C]] = {}
        self._selected: C | None = None

    # -- registration ----------------------------------------------------

    def register(self, factory: Callable[[MCAParams], C]) -> None:
        """Register a component factory (usually the component class)."""
        comp_name = getattr(factory, "name", None)
        if not comp_name:
            raise ValueError(
                f"component factory {factory!r} has no 'name' attribute"
            )
        if comp_name in self._factories:
            raise ValueError(
                f"framework {self.name!r}: duplicate component {comp_name!r}"
            )
        self._factories[comp_name] = factory

    @property
    def component_names(self) -> list[str]:
        return sorted(self._factories)

    # -- selection ---------------------------------------------------------

    def open(self, params: MCAParams | None = None, context: object | None = None) -> C:
        """Run component selection and open the winner."""
        params = params or MCAParams()
        forced = params.get(self.name)
        if forced:
            factory = self._factories.get(forced)
            if factory is None:
                raise ComponentNotFoundError(self.name, forced)
            component = factory(params)
            if not component.query(context):  # type: ignore[attr-defined]
                raise ComponentSelectError(
                    f"forced component {self.name}:{forced} is unavailable"
                )
            candidates = [component]
        else:
            candidates = []
            for factory in self._factories.values():
                component = factory(params)
                if component.query(context):  # type: ignore[attr-defined]
                    candidates.append(component)
            candidates.sort(
                key=lambda c: (c.priority, c.name),  # type: ignore[attr-defined]
                reverse=True,
            )
        if not candidates:
            raise ComponentSelectError(
                f"framework {self.name!r}: no available component "
                f"(registered: {', '.join(self.component_names) or 'none'})"
            )
        winner = candidates[0]
        winner.open(context)  # type: ignore[attr-defined]
        self._selected = winner
        log.debug("framework %s selected %s", self.name, winner)
        return winner

    def open_all(self, params: MCAParams | None = None, context: object | None = None) -> list[C]:
        """Open every available component, highest priority first.

        Used by multi-select frameworks (BTL): all usable components
        coexist and the caller picks per use.  The parameter value for
        the framework name is interpreted as an include list
        (``--mca btl tcp,sm``).
        """
        params = params or MCAParams()
        include = params.get_list(self.name) or None
        selected: list[C] = []
        for name in sorted(self._factories):
            if include is not None and name not in include:
                continue
            component = self._factories[name](params)
            if component.query(context):  # type: ignore[attr-defined]
                component.open(context)  # type: ignore[attr-defined]
                selected.append(component)
        if not selected:
            raise ComponentSelectError(
                f"framework {self.name!r}: no available component"
            )
        selected.sort(
            key=lambda c: (c.priority, c.name),  # type: ignore[attr-defined]
            reverse=True,
        )
        return selected

    @property
    def module(self) -> C:
        if self._selected is None:
            raise ComponentSelectError(f"framework {self.name!r} is not open")
        return self._selected

    @property
    def is_open(self) -> bool:
        return self._selected is not None

    def close(self) -> None:
        if self._selected is not None:
            self._selected.close()  # type: ignore[attr-defined]
            self._selected = None
