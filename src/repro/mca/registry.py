"""Per-process framework registry.

Each simulated process holds one :class:`FrameworkRegistry` describing
which frameworks exist and which component classes are plugged into
each.  ``default_registry()`` builds the registry shipped with this
reproduction (the components from the paper's section 6); tests build
cut-down registries with synthetic components to exercise selection in
isolation.
"""

from __future__ import annotations

from typing import Callable

from repro.mca.framework import Framework
from repro.mca.params import MCAParams


class FrameworkRegistry:
    """Holds framework definitions and opens them on demand."""

    def __init__(self) -> None:
        self._frameworks: dict[str, Framework] = {}

    def define(self, name: str, default: str = "", help: str = "") -> Framework:
        """A framework selected by the key *name*, which *default* and *help* document."""
        if name in self._frameworks:
            raise ValueError(f"framework {name!r} already defined")
        fw: Framework = Framework(name, default, help or f"force {name.upper()} component selection")
        self._frameworks[name] = fw
        return fw

    def add_component(self, framework: str, factory: Callable) -> None:
        self.framework(framework).register(factory)

    def framework(self, name: str) -> Framework:
        try:
            return self._frameworks[name]
        except KeyError:
            raise KeyError(f"framework {name!r} is not defined") from None

    def __contains__(self, name: str) -> bool:
        return name in self._frameworks

    @property
    def framework_names(self) -> list[str]:
        return sorted(self._frameworks)

    def open(self, name: str, params: MCAParams | None = None, context: object | None = None):
        return self.framework(name).open(params, context)


def default_registry() -> FrameworkRegistry:
    """The full component set from the paper, wired into one registry.

    Imported lazily to avoid import cycles (components import their
    framework base classes which import ``repro.mca``).
    """
    from repro.opal.crs.base import register_crs_components
    from repro.orte.filem.base import register_filem_components
    from repro.orte.plm.base import register_plm_components
    from repro.orte.snapc.base import register_snapc_components
    from repro.ompi.btl.base import register_btl_components
    from repro.ompi.coll.base import register_coll_components
    from repro.ompi.crcp.base import register_crcp_components
    from repro.ompi.pml.base import register_pml_components

    reg = FrameworkRegistry()
    for name, default in (
        ("crs", "simcr"), ("snapc", "full"), ("filem", "rsh"), ("plm", "rsh"),
        ("pml", "ob1"), ("btl", "tcp,ib,sm"), ("crcp", "coord"), ("coll", "basic"),
    ):
        reg.define(name, default, "BTL include list" if name == "btl" else "")  # multi-select
    register_crs_components(reg)
    register_snapc_components(reg)
    register_filem_components(reg)
    register_plm_components(reg)
    register_pml_components(reg)
    register_btl_components(reg)
    register_crcp_components(reg)
    register_coll_components(reg)
    return reg
